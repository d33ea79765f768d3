package core

import "testing"

func TestOptionsBuilderRequired(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("missing Builder did not panic")
		}
	}()
	NewAmortized(Options{})
}

func TestOptionsNegativeTauPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Tau did not panic")
		}
	}()
	NewAmortized(Options{Builder: fmBuilder, Tau: -1})
}

func TestOptionsEpsilonClamped(t *testing.T) {
	for _, eps := range []float64{-1, 0, 1.5, 99} {
		a := NewAmortized(Options{Builder: fmBuilder, Epsilon: eps})
		if a.opts.Epsilon <= 0 || a.opts.Epsilon > 1 {
			t.Fatalf("Epsilon %f not clamped: %f", eps, a.opts.Epsilon)
		}
	}
}

func TestOptionsMinCapacityDefault(t *testing.T) {
	a := NewAmortized(Options{Builder: fmBuilder, MinCapacity: -5})
	if a.opts.MinCapacity <= 0 {
		t.Fatalf("MinCapacity not defaulted: %d", a.opts.MinCapacity)
	}
}

func TestWorstCaseOptionsShareValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("missing Builder did not panic for WorstCase")
		}
	}()
	NewWorstCase(Options{})
}
