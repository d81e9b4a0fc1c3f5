package bn

import (
	"fmt"
	"sort"
	"testing"

	"kertbn/internal/factor"
	"kertbn/internal/stats"
)

// factorRef is the decode-based original of (*Tabular).Factor: it decodes
// every parent configuration, searches the sorted scope for each variable
// and sets entries one by one. It survives only as the oracle the strided
// scatter must match bit for bit.
func factorRef(t *Tabular, nodeID int, parentIDs []int) *factor.Factor {
	vars := append(append([]int(nil), parentIDs...), nodeID)
	card := append(append([]int(nil), t.ParentCard...), t.Card)
	f := factor.New(vars, card)
	assign := make([]int, len(vars))
	for cfg := 0; cfg < t.Rows(); cfg++ {
		pa := t.ConfigAssignment(cfg)
		for s := 0; s < t.Card; s++ {
			for i, v := range f.Vars {
				if v == nodeID {
					assign[i] = s
					continue
				}
				for j, p := range parentIDs {
					if p == v {
						assign[i] = pa[j]
						break
					}
				}
			}
			f.Set(assign, t.P[cfg*t.Card+s])
		}
	}
	return f
}

// TestTabularFactorMatchesDecodeOracle covers roots, nodes above all their
// parents (the straight-copy layout), nodes below or between their parents
// (a scatter), and rows with zero entries.
func TestTabularFactorMatchesDecodeOracle(t *testing.T) {
	rng := stats.NewRNG(77)
	for trial := 0; trial < 300; trial++ {
		ids := rng.Perm(7)[:1+rng.Intn(5)]
		node, parents := ids[0], append([]int(nil), ids[1:]...)
		sort.Ints(parents)
		parentCard := make([]int, len(parents))
		for i := range parentCard {
			parentCard[i] = 1 + rng.Intn(4)
		}
		tab := NewTabular(2+rng.Intn(3), parentCard)
		for i := range tab.P {
			if rng.Float64() < 0.2 {
				tab.P[i] = 0
			} else {
				tab.P[i] = rng.Float64()
			}
		}
		got, want := tab.Factor(node, parents), factorRef(tab, node, parents)
		what := fmt.Sprintf("trial %d node %d parents %v", trial, node, parents)
		if fmt.Sprint(got.Vars, got.Card) != fmt.Sprint(want.Vars, want.Card) {
			t.Fatalf("%s: scope %v/%v, want %v/%v", what, got.Vars, got.Card, want.Vars, want.Card)
		}
		for i := range want.Values {
			if got.Values[i] != want.Values[i] {
				t.Fatalf("%s: entry %d = %v, want %v", what, i, got.Values[i], want.Values[i])
			}
		}
	}
}
