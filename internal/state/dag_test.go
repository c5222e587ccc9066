package state

import (
	"math/rand"
	"reflect"
	"testing"

	"mtpu/internal/types"
)

// pairwiseDAG is the reference ConflictDAG replaced: test every earlier
// transaction against every later one.
func pairwiseDAG(reads, writes []AccessSet) *types.DAG {
	n := len(reads)
	dag := types.NewDAG(n)
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			if writes[i].Overlaps(reads[j]) || writes[i].Overlaps(writes[j]) ||
				reads[i].Overlaps(writes[j]) {
				dag.AddEdge(i, j)
			}
		}
	}
	return dag
}

func dagKey(i int) AccessKey {
	k := AccessKey{Kind: AccessKind(i % 4)}
	k.Addr[0], k.Addr[19] = byte(i), byte(i>>8)
	if k.Kind == AccessStorage {
		k.Slot[31] = byte(i)
	}
	return k
}

func setOf(keys ...int) AccessSet {
	s := make(AccessSet, len(keys))
	for _, k := range keys {
		s[dagKey(k)] = struct{}{}
	}
	return s
}

func requireSameDAG(t *testing.T, name string, reads, writes []AccessSet) {
	t.Helper()
	got, want := ConflictDAG(reads, writes), pairwiseDAG(reads, writes)
	if !reflect.DeepEqual(got.Deps, want.Deps) {
		t.Fatalf("%s: indexed DAG\n%v\n!= pairwise DAG\n%v", name, got.Deps, want.Deps)
	}
}

// TestConflictDAGAdversarial pins the shapes where an index over keys
// could plausibly go wrong, each against the pairwise reference —
// identical Deps slices, order included.
func TestConflictDAGAdversarial(t *testing.T) {
	const n = 24
	shapes := map[string]func(i int) (rd, wr AccessSet){
		"every tx writes one key":     func(i int) (rd, wr AccessSet) { return setOf(), setOf(7) },
		"every tx reads+writes one":   func(i int) (rd, wr AccessSet) { return setOf(7), setOf(7) },
		"one key read by all":         func(i int) (rd, wr AccessSet) { return setOf(7), setOf(100 + i) },
		"empty sets":                  func(i int) (rd, wr AccessSet) { return setOf(), setOf() },
		"nil sets":                    func(i int) (rd, wr AccessSet) { return nil, nil },
		"write after read only":       func(i int) (rd, wr AccessSet) { return setOf(i + 1), setOf(i) },
		"read after write only":       func(i int) (rd, wr AccessSet) { return setOf(i), setOf(i + 1) },
		"many shared keys, one edge":  func(i int) (rd, wr AccessSet) { return setOf(1, 2, 3, 4), setOf(1, 2, 3, 4) },
		"alternating reader / writer": func(i int) (rd, wr AccessSet) { return setOf(7 * (i % 2)), setOf(7 * ((i + 1) % 2)) },
		"disjoint":                    func(i int) (rd, wr AccessSet) { return setOf(2 * i), setOf(2*i + 1) },
		"last tx writes what all read": func(i int) (rd, wr AccessSet) {
			if i == n-1 {
				return setOf(7), setOf(7)
			}
			return setOf(7), setOf()
		},
	}
	for name, shape := range shapes {
		for _, size := range []int{0, 1, 2, n} {
			reads, writes := make([]AccessSet, size), make([]AccessSet, size)
			for i := range reads {
				reads[i], writes[i] = shape(i)
			}
			requireSameDAG(t, name, reads, writes)
		}
	}
}

// randomSets draws n transactions' access sets over a pool of keys
// small enough that conflicts are the rule.
func randomSets(rng *rand.Rand, n, pool, maxKeys int) (reads, writes []AccessSet) {
	reads, writes = make([]AccessSet, n), make([]AccessSet, n)
	draw := func() AccessSet {
		s := make(AccessSet)
		for k := rng.Intn(maxKeys + 1); k > 0; k-- {
			s[dagKey(rng.Intn(pool))] = struct{}{}
		}
		return s
	}
	for i := range reads {
		reads[i], writes[i] = draw(), draw()
	}
	return reads, writes
}

func TestConflictDAGRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for round := 0; round < 400; round++ {
		n := rng.Intn(40)
		pool := 1 + rng.Intn(3*n+4)
		reads, writes := randomSets(rng, n, pool, 1+rng.Intn(6))
		requireSameDAG(t, "random", reads, writes)
	}
}

// FuzzConflictDAG decodes the input as a list of (tx, key, read|write)
// accesses and holds the indexed builder to the pairwise reference.
func FuzzConflictDAG(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1, 1, 2, 1})
	f.Add([]byte{0x10, 7, 0x21, 7, 0x30, 7, 0x41, 7, 0x41, 8, 0x50, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxTxs = 16
		reads, writes := make([]AccessSet, maxTxs), make([]AccessSet, maxTxs)
		for i := range reads {
			reads[i], writes[i] = make(AccessSet), make(AccessSet)
		}
		n := 0
		for i := 0; i+1 < len(data); i += 2 {
			tx, write, key := int(data[i]>>4), data[i]&1 == 1, dagKey(int(data[i+1]%32))
			if write {
				writes[tx][key] = struct{}{}
			} else {
				reads[tx][key] = struct{}{}
			}
			if tx >= n {
				n = tx + 1
			}
		}
		requireSameDAG(t, "fuzz", reads[:n], writes[:n])
	})
}
