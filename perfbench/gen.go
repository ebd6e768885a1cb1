package main

import (
	"fmt"
	"math/rand/v2"

	"kset/internal/service"
)

// This file generates every workload input from the seed. Workloads draw
// their instances in rounds: each round is a seed-shuffled permutation of the
// workload's whole instance set, so a run of any length holds every instance
// equally often up to one partial round. The seed then decides order, not
// mix, and medians and p90s do not move with the draw.

func newRand(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x6b736574)) }

// rounds yields indices into a set of size n, one shuffled round at a time.
type rounds struct {
	rng   *rand.Rand
	perm  []int
	pos   int
	round int // the round the last index came from, from 0
}

func newRounds(rng *rand.Rand, n int) *rounds {
	return &rounds{rng: rng, perm: make([]int, n), pos: n, round: -1}
}

func (r *rounds) next() int {
	if r.pos == len(r.perm) {
		for i := range r.perm {
			r.perm[i] = i
		}
		r.rng.Shuffle(len(r.perm), func(i, j int) { r.perm[i], r.perm[j] = r.perm[j], r.perm[i] })
		r.pos = 0
		r.round++
	}
	r.pos++
	return r.perm[r.pos-1]
}

// spread picks k of n indices evenly spread over an ordered list, the middle
// of each of k equal strata, so every part of the list is represented and
// the picked work is the same whatever the seed.
func spread(n, k int) []int {
	step := n / k
	out := make([]int, k)
	for i := range out {
		out[i] = i*step + step/2
	}
	return out
}

// cell is one vet instance: Theorem 2's partition of n processes with
// resilience f for k-set agreement, applied to a candidate algorithm.
type cell struct {
	Alg     string
	N, F, K int
}

func (c cell) String() string { return fmt.Sprintf("%s/n%d/f%d/k%d", c.Alg, c.N, c.F, c.K) }

// vetAlgs are the candidate algorithms of the vet probe and serve's specs.
var vetAlgs = []string{"minwait", "decideown", "roundflood", "firstheard", "singletonquorum", "sigmaomega", "flpkset"}

// vetCells lists the cells the vet probe checks: n = 4..7 and every
// k <= (n-1)/(n-f), keeping only cells the engine refutes without
// truncation, in milliseconds (159 on the commit that introduced the
// benchmark).
func vetCells() []cell {
	var out []cell
	for _, alg := range vetAlgs {
		for n := 4; n <= 7; n++ {
			for f := 1; f < n; f++ {
				for k := 1; k*(n-f) <= n-1; k++ {
					if vetCell(alg, n, f, k) {
						out = append(out, cell{alg, n, f, k})
					}
				}
			}
		}
	}
	return out
}

func vetCell(alg string, n, f, k int) bool {
	switch alg {
	case "firstheard", "singletonquorum", "sigmaomega":
		// For k > 1 condition (A) fails: the solo runs go to the step
		// horizon (0.3-1.3 s each) and nothing is refuted.
		return k == 1
	case "flpkset":
		// Below f = n-1 the termination search truncates after 2-30 s.
		return f == n-1
	case "roundflood":
		// At n >= 6 the cells take 2-20 ms: a sparse tail in which the
		// p90 would sit between cells instead of inside a dense cluster.
		return n < 6
	}
	return true
}

// Serve specs vary the fields that reach the verdict digest.
var (
	serveBudgets = []int{1, 2}
	serveFaults  = []string{"", "send-omission:1:1", "receive-omission:1:1"}
)

// serveSpecs returns the cold specs of the serve workload, deduplicated by
// digest: knobs that cannot change a verdict share one (for example the crash
// budget of an algorithm that never waits), and a spec whose digest was seen
// would be a cache hit, not a cold job. Impossibility specs are the vet cells
// under each crash budget and fault model; search specs are full-system
// consensus-failure searches small enough to find their witness by BFS in
// milliseconds. Every spec runs on one search worker.
func serveSpecs(r service.KsetRunner) ([]service.InstanceSpec, error) {
	var out []service.InstanceSpec
	seen := map[string]bool{}
	add := func(sp service.InstanceSpec) error {
		sp.Workers = 1
		d, err := r.Digest(sp)
		if err != nil {
			return fmt.Errorf("digest of %+v: %w", sp, err)
		}
		if !seen[d] {
			seen[d] = true
			out = append(out, sp)
		}
		return nil
	}
	for _, c := range vetCells() {
		for _, b := range serveBudgets {
			for _, fm := range serveFaults {
				if err := add(service.InstanceSpec{Alg: c.Alg, N: c.N, F: c.F, K: c.K, Budget: b, Faults: fm}); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, alg := range vetAlgs {
		for n := 3; n <= 5; n++ {
			for f := 1; f < n; f++ {
				if !searchSpec(alg, n, f) {
					continue
				}
				for _, b := range serveBudgets {
					for _, fm := range serveFaults {
						if err := add(service.InstanceSpec{Alg: alg, N: n, F: f, Goal: service.GoalSearch, Budget: b, Faults: fm}); err != nil {
							return nil, err
						}
					}
				}
			}
		}
	}
	return out, nil
}

// searchSpec selects the full-system searches that find a witness within
// 30 ms; the rest of the family runs for seconds or truncates.
func searchSpec(alg string, n, f int) bool {
	switch alg {
	case "decideown", "firstheard", "sigmaomega":
		return true
	case "minwait":
		return 2*f >= n
	case "flpkset":
		return f == n-1
	case "singletonquorum":
		return n == 3
	}
	return false
}
