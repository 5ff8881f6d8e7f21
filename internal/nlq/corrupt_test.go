package nlq

import (
	"strings"
	"testing"

	"repro/internal/dimension"
	"repro/internal/faults"
	"repro/internal/olap"
)

// The ASR-noise corrupter lives in faults; its tests live here, beside the
// keywords it protects and the fuzzy matcher its edits are sized for.

func TestCorrupterDeterministic(t *testing.T) {
	in := "how does cancellation depend on region and season"
	a := faults.NewCorrupter(faults.CorruptConfig{Seed: 7}).Corrupt(in)
	b := faults.NewCorrupter(faults.CorruptConfig{Seed: 7}).Corrupt(in)
	if a != b {
		t.Errorf("same seed diverged: %q vs %q", a, b)
	}
	c := faults.NewCorrupter(faults.CorruptConfig{Seed: 8}).Corrupt(in)
	if a == c {
		t.Errorf("different seeds should (almost surely) differ: %q", a)
	}
}

func TestCorrupterProtectsKeywords(t *testing.T) {
	in := "drill down into the start airport"
	out := faults.NewCorrupter(faults.CorruptConfig{Seed: 3, Homophones: true}).Corrupt(in)
	for _, kw := range []string{"drill", "down"} {
		if !containsWord(out, kw) {
			t.Errorf("keyword %q corrupted away: %q", kw, out)
		}
	}
	// Content words long enough to carry edits must actually change.
	if out == in {
		t.Errorf("no corruption applied at rate 1: %q", out)
	}
}

func TestCorrupterHomophones(t *testing.T) {
	out := faults.NewCorrupter(faults.CorruptConfig{Seed: 1, Homophones: true}).Corrupt("and for winter")
	if !strings.Contains(out, "winner") {
		t.Errorf("winter should homophone to winner: %q", out)
	}
	if !strings.Contains(out, "four") {
		t.Errorf("for should homophone to four: %q", out)
	}
}

func TestCorrupterSkipsShortWords(t *testing.T) {
	// Without homophones, words under five characters pass through: the
	// fuzzy matcher cannot recover them, so corrupting them is pure loss.
	out := faults.NewCorrupter(faults.CorruptConfig{Seed: 5}).Corrupt("may in fall")
	if out != "may in fall" {
		t.Errorf("short words corrupted: %q", out)
	}
}

// corruptibleMembers lists the flight members the fuzzy matcher could in
// principle recover: every word of the name long enough to match with an
// edit.
func corruptibleMembers(s *Session) []*dimension.Member {
	var out []*dimension.Member
	for _, h := range s.dataset.Hierarchies() {
		for level := 1; level <= h.Depth(); level++ {
			for _, m := range h.MembersAt(level) {
				eligible := true
				for _, w := range strings.Fields(m.Name) {
					if maxEditDistance(len(w)) == 0 {
						eligible = false
						break
					}
				}
				if eligible {
					out = append(out, m)
				}
			}
		}
	}
	return out
}

// TestCorruptedMemberRecoveryRate pins the end-to-end ASR-noise story: a
// corrupted member mention must still resolve — via fuzzy.go — to the
// member the speaker meant, for the bulk of the corpus. The corpus is
// seeded, so the measured rate is exact and regressions in either the
// corrupter or the fuzzy matcher move it.
func TestCorruptedMemberRecoveryRate(t *testing.T) {
	s := newFlightsSession(t)
	members := corruptibleMembers(s)
	if len(members) < 20 {
		t.Fatalf("only %d corruptible members; corpus too small", len(members))
	}
	c := faults.NewCorrupter(faults.CorruptConfig{Seed: 17})
	recovered, total := 0, 0
	for _, m := range members {
		noisy := c.Corrupt(strings.ToLower(m.Name))
		// Fresh session over the same dataset: member identity must survive.
		sess, err := NewSession(s.dataset, olap.Avg, "cancelled", "average cancellation probability")
		if err != nil {
			t.Fatalf("NewSession: %v", err)
		}
		r, err := sess.Parse("only " + noisy)
		total++
		if err != nil {
			continue
		}
		if !r.IsQuery && r.Action != "query" {
			continue
		}
		if f := sess.Query().FilterOn(m.Hierarchy()); f == m {
			recovered++
		}
	}
	rate := float64(recovered) / float64(total)
	t.Logf("recovery: %d/%d = %.3f", recovered, total, rate)
	if rate < 0.70 {
		t.Errorf("fuzzy recovery rate %.3f below the 0.70 floor", rate)
	}
	if rate == 1 {
		t.Errorf("recovery rate 1.0: the corrupter is not producing real noise")
	}
}
