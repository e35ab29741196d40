package sat

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestConfigDefaults: New and a zero-config NewWithConfig are the same
// solver — same verdict, same model, same search effort.
func TestConfigDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const nVars = 30
	cls := make([][]Lit, 120)
	for i := range cls {
		cls[i] = []Lit{
			MkLit(rng.Intn(nVars), rng.Intn(2) == 0),
			MkLit(rng.Intn(nVars), rng.Intn(2) == 0),
			MkLit(rng.Intn(nVars), rng.Intn(2) == 0),
		}
	}
	a := New(7)
	b := NewWithConfig(Config{Seed: 7})
	for _, s := range []*Solver{a, b} {
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		for _, c := range cls {
			s.AddClause(c...)
		}
	}
	sta, stb := a.Solve(), b.Solve()
	if sta != stb {
		t.Fatalf("verdicts differ: %v vs %v", sta, stb)
	}
	if sta == Sat && !reflect.DeepEqual(a.Model(), b.Model()) {
		t.Fatal("models differ between New and zero-config NewWithConfig")
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("search effort differs: %+v vs %+v", a.Stats(), b.Stats())
	}
}
