package core

import (
	"fmt"
	"math/rand"

	"repro/internal/machine"
	"repro/internal/tensor"
)

// Field is one rank's share of a distributed 3-D array. Data lives on the
// device (all paper experiments are GPU-resident). A phantom field carries
// only its box: plans execute the full communication schedule with identical
// virtual timings but move no real bytes.
type Field struct {
	Box  tensor.Box3
	Data []complex128 // nil for phantom fields
	// real holds the values instead of Data while the field sits in the real
	// segment of an R2C plan's pipeline (before its r2c stage, after its c2r
	// stage): the Data/Real pair mpisim.Buf carries.
	real []float64
}

// NewField allocates a zero-valued field covering the box.
func NewField(b tensor.Box3) *Field {
	return &Field{Box: b, Data: make([]complex128, b.Volume())}
}

// NewPhantom returns a size-only field covering the box.
func NewPhantom(b tensor.Box3) *Field {
	return &Field{Box: b}
}

// Phantom reports whether the field carries no real data.
func (f *Field) Phantom() bool { return f.Data == nil && f.real == nil }

// Bytes returns the device memory footprint of the field.
func (f *Field) Bytes() int { return 16 * f.Box.Volume() }

// Loc returns the buffer location (always device in this simulation).
func (f *Field) Loc() machine.Location { return machine.Device }

// FillRandom fills a real field with a reproducible random signal.
func (f *Field) FillRandom(seed int64) {
	if f.Phantom() {
		panic("core: FillRandom on phantom field")
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range f.Data {
		f.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
}

// validate checks the field against an expected box.
func (f *Field) validate(want tensor.Box3) error {
	if !f.Box.Equal(want) {
		return fmt.Errorf("core: field box %v does not match plan box %v", f.Box, want)
	}
	n := len(f.Data)
	if f.real != nil {
		n = len(f.real)
	}
	if !f.Phantom() && n != f.Box.Volume() {
		return fmt.Errorf("core: field data length %d != box volume %d", n, f.Box.Volume())
	}
	return nil
}
