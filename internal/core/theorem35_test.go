package core

import (
	"math/rand"
	"testing"

	"xic/internal/constraint"
	"xic/internal/randgen"
)

// TestTheorem35KeysEquivalence checks the statement of Theorem 3.5(2)
// directly on random DTDs: a set of keys is satisfiable together with the
// DTD iff the DTD has any valid tree at all — attribute values can always
// be chosen pairwise distinct.
func TestTheorem35KeysEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 30; trial++ {
		d := randgen.RandDTD(rng, randgen.DTDSpec{
			Types:     1 + rng.Intn(5),
			Depth:     rng.Intn(3),
			Recursive: rng.Intn(2) == 0,
			AttrsPer:  1 + rng.Intn(2),
		})
		keys := randgen.KeySetOver(d)
		// Build (and verify) witnesses on a sample of trials; the decision
		// itself is the cheap linear path.
		opt := &Options{SkipWitness: trial%5 != 0}
		res, err := consistent(d, keys, opt)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, d)
		}
		if res.Consistent != d.HasValidTree() {
			t.Fatalf("trial %d: keys consistency %v but HasValidTree %v\n%s",
				trial, res.Consistent, d.HasValidTree(), d)
		}
		if res.Consistent && !opt.SkipWitness {
			if res.Witness == nil {
				t.Fatalf("trial %d: no witness", trial)
			}
			if ok, v := constraint.SatisfiedAll(res.Witness, keys); !ok {
				t.Fatalf("trial %d: witness violates %s", trial, v)
			}
		}
	}
}

// TestTheorem35ImplicationMonotone checks a consequence of Lemma 3.7:
// adding keys to Σ can only grow the set of implied keys.
func TestTheorem35ImplicationMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 40; trial++ {
		d := randgen.RandDTD(rng, randgen.DTDSpec{Types: 2 + rng.Intn(3), Depth: 2, AttrsPer: 2})
		pairs := randgen.AttrPairs(d)
		if len(pairs) < 2 {
			continue
		}
		phiPair := pairs[rng.Intn(len(pairs))]
		phi := constraint.UnaryKey(phiPair[0], phiPair[1])

		small := randgen.RandUnarySet(rng, d, randgen.SetSpec{Keys: 1})
		large := append(append([]constraint.Constraint{}, small...),
			randgen.RandUnarySet(rng, d, randgen.SetSpec{Keys: 2})...)

		smallOK, err := ImpliesKey(d, small, phi)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		largeOK, err := ImpliesKey(d, large, phi)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if smallOK && !largeOK {
			t.Fatalf("trial %d: implication lost under a larger Σ\n%s", trial, d)
		}
	}
}
