package fleet

import (
	"fmt"
	"testing"
)

func ringMembers(n int) []string {
	ms := make([]string, n)
	for i := range ms {
		ms[i] = fmt.Sprintf("http://127.0.0.1:%d", 8081+i)
	}
	return ms
}

func ringKeys(n int) []string {
	ks := make([]string, n)
	for i := range ks {
		ks[i] = fmt.Sprintf("protein-%d", i)
	}
	return ks
}

// TestRingDeterministic: placement is a pure function of the member set —
// identical across ring instances and across input permutations, because
// a restarted router must send every protein back to the replica that
// served it before.
func TestRingDeterministic(t *testing.T) {
	members := ringMembers(5)
	shuffled := []string{members[3], members[0], members[4], members[2], members[1]}
	a := NewRing(members, 64)
	b := NewRing(shuffled, 64)
	for _, k := range ringKeys(2000) {
		ao, bo := a.Members()[a.Owner(k)], b.Members()[b.Owner(k)]
		if ao != bo {
			t.Fatalf("key %q: owner %s vs %s across permuted construction", k, ao, bo)
		}
	}
}

// TestRingLoadSkew: at 64 vnodes per member, no member's key share may
// exceed the even split by more than 15%. The bound holds because vnode
// hashes go through the splitmix64 finalizer — plain FNV over the short
// "#NN"-suffixed labels clusters badly enough to break it.
func TestRingLoadSkew(t *testing.T) {
	keys := ringKeys(100000)
	for _, n := range []int{2, 3, 4, 5, 8, 12, 16} {
		r := NewRing(ringMembers(n), 64)
		counts := make([]int, n)
		for _, k := range keys {
			counts[r.Owner(k)]++
		}
		even := float64(len(keys)) / float64(n)
		for i, c := range counts {
			skew := float64(c)/even - 1
			if skew > 0.15 {
				t.Errorf("%d members: member %d owns %d keys, %.1f%% over the even share",
					n, i, c, skew*100)
			}
		}
	}
}

// TestRingMinimalMovement: removing one member may move only the keys
// that member owned. Every other key keeps its owner, so a replica
// failure does not shuffle the surviving replicas' cache working sets.
func TestRingMinimalMovement(t *testing.T) {
	members := ringMembers(5)
	removed := members[2]
	full := NewRing(members, 64)
	reduced := NewRing(append(append([]string{}, members[:2]...), members[3:]...), 64)
	moved, owned := 0, 0
	for _, k := range ringKeys(20000) {
		before := full.Members()[full.Owner(k)]
		after := reduced.Members()[reduced.Owner(k)]
		if before == removed {
			owned++
			continue // these must move somewhere; anywhere is legal
		}
		if before != after {
			moved++
			t.Errorf("key %q moved %s -> %s though %s was the member removed", k, before, after, removed)
			if moved > 5 {
				t.Fatal("too many moved keys, stopping")
			}
		}
	}
	if owned == 0 {
		t.Fatal("removed member owned no keys; the movement property was tested vacuously")
	}
}

// TestRingPreference: the preference walk starts at the owner and yields
// every member exactly once — the full retry order for a key.
func TestRingPreference(t *testing.T) {
	r := NewRing(ringMembers(6), 64)
	for _, k := range ringKeys(500) {
		order := r.Preference(k, nil)
		if len(order) != r.Len() {
			t.Fatalf("key %q: preference lists %d members, want %d", k, len(order), r.Len())
		}
		if order[0] != r.Owner(k) {
			t.Fatalf("key %q: preference starts at %d, owner is %d", k, order[0], r.Owner(k))
		}
		seen := map[int]bool{}
		for _, m := range order {
			if seen[m] {
				t.Fatalf("key %q: member %d appears twice in preference", k, m)
			}
			seen[m] = true
		}
	}
}

// TestRingDedupAndEmpty: duplicate member names collapse; an empty ring
// answers Owner with -1 rather than panicking.
func TestRingDedupAndEmpty(t *testing.T) {
	r := NewRing([]string{"a", "a", "b"}, 8)
	if r.Len() != 2 {
		t.Fatalf("deduped ring has %d members, want 2", r.Len())
	}
	empty := NewRing(nil, 8)
	if got := empty.Owner("x"); got != -1 {
		t.Fatalf("empty ring owner = %d, want -1", got)
	}
	if got := empty.Preference("x", nil); len(got) != 0 {
		t.Fatalf("empty ring preference = %v, want empty", got)
	}
}
