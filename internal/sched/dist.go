// Deterministic hypergeometric sampling for the batch dynamics
// (multibatch.go) and the hybrid's exchange deal (SplitCounts).
//
// Construction. The hypergeometric pmf is log-concave, so its successive
// ratios p(k+1)/p(k) decrease in k. HypSampler.Draw builds exact
// unnormalized weights w(k) (w(mode) = 1, grown by the pmf ratio
// recurrences) only over a CORE of about ±1.5σ around the mode, and bounds
// each tail by the geometric majorant g(edge ± d) = w(edge)·r(edge)^d, where
// r(edge) is the ratio leaving the core; log-concavity makes g ≥ w on the
// whole tail, and the majorant's mass has the closed form
// w(edge)·r/(1−r). One uniform is inverted against the envelope
// core + both majorants: landing in the core returns k by exact inversion;
// landing in a tail picks k from the majorant and accepts it with
// probability w(k)/g(k), otherwise the whole draw is repeated. The result is
// exact in distribution — no truncation anywhere — at O(σ) work for the core
// plus an O(σ) tail walk on the ~17% of draws that land there (at the
// batch tier's operating scale; ~4% are rejected and repeated).
//
// Cross-platform determinism is a hard contract here — a batch checkpoint
// resumed on another machine must continue the identical draw sequence — so
// the sampler uses only IEEE-754 basic operations (+, −, ×, ÷, comparisons),
// which Go evaluates correctly rounded and reproducibly on every platform.
// No math.Exp/Log/Sqrt/Lgamma, no libm variance (the core width comes from
// an integer square root), and every intermediate lands in an explicitly
// assigned float64 variable so the compiler cannot fuse a multiply-add (the
// Go spec permits FMA fusion only on unassigned intermediates).
//
// Stream contract: a draw with a single-point support consumes nothing (a
// pure function of the arguments); every other draw consumes exactly one
// 64-bit uniform from the caller's stream. The tail acceptance uniforms and
// any repeated draws after a rejection come from a side Stream seeded by
// mix64(u + hypRejectSalt), where u is the draw's main-stream word, so the
// main stream's position after k draws stays a pure function of k — what
// lets a resumed scheduler replay the sequence.
package sched

import "math/bits"

// hypRejectSalt decorrelates a draw's rejection side stream from the main
// stream (an arbitrary odd constant, fixed forever).
const hypRejectSalt = 0x3C6EF372FE94F82B

// uniform53 maps a raw 64-bit draw to the dyadic uniform on [0, 1) with 53
// significant bits — the standard bit-exact construction.
func uniform53(x uint64) float64 {
	return float64(x>>11) * 0x1.0p-53
}

// isqrt returns ⌊√x⌋ for x ≥ 0 by integer Newton iteration from an
// overestimate.
func isqrt(x int64) int64 {
	if x < 2 {
		return x
	}
	r := int64(1) << ((bits.Len64(uint64(x)) + 1) / 2)
	for {
		s := (r + x/r) / 2
		if s >= r {
			return r
		}
		r = s
	}
}

// hypUp returns the pmf ratio p(k+1)/p(k) = (K−k)(n−k) / ((k+1)(N−K−n+k+1))
// of Hypergeometric(N, K, n). The integer products stay below 2⁶³ for any
// population this package addresses, and converting them to float64 rounds
// correctly.
func hypUp(N, K, n, k int64) float64 {
	num := float64((K - k) * (n - k))
	den := float64((k + 1) * (N - K - n + k + 1))
	return num / den
}

// hypDown returns the pmf ratio p(k−1)/p(k) = k(N−K−n+k) / ((K−k+1)(n−k+1)).
func hypDown(N, K, n, k int64) float64 {
	num := float64(k * (N - K - n + k))
	den := float64((K - k + 1) * (n - k + 1))
	return num / den
}

// HypSampler draws hypergeometric variates; it owns the reusable core weight
// buffer so repeated draws (the batch scheduler issues O(|Q|²) per run)
// allocate nothing. The zero value is ready to use. Not safe for concurrent
// use; give each goroutine its own.
type HypSampler struct {
	w []float64
}

// Draw samples Hypergeometric(N, K, n): the number of marked items among n
// draws without replacement from a population of N items of which K are
// marked. Requires 0 ≤ K ≤ N, 0 ≤ n ≤ N; consumes one uniform from rng
// unless the support is a single point.
func (h *HypSampler) Draw(rng *BufStream, N, K, n int64) int64 {
	lo := n + K - N
	if lo < 0 {
		lo = 0
	}
	hi := n
	if K < hi {
		hi = K
	}
	if lo >= hi {
		return lo // single-point support: deterministic, no draw
	}
	// Mode of the pmf: ⌊(n+1)(K+1)/(N+2)⌋, clamped into the support.
	mode := (n + 1) * (K + 1) / (N + 2)
	if mode < lo {
		mode = lo
	}
	if mode > hi {
		mode = hi
	}
	// Core half-width c = ⌊1.5·⌊σ⌋⌋ + 1 from the variance
	// n·(K/N)·((N−K)/N)·((N−n)/(N−1)). A tail shorter than c is folded into
	// the core: its majorant would carry mostly phantom mass past the
	// support's end.
	fN := float64(N)
	pK := float64(K) / fN
	qK := float64(N-K) / fN
	fpc := float64(N-n) / float64(N-1)
	v := float64(n) * pK
	v = v * qK
	v = v * fpc
	s := isqrt(int64(v))
	c := s + s/2 + 1
	cl, ch := mode-c, mode+c
	if cl-lo < c {
		cl = lo
	}
	if hi-ch < c {
		ch = hi
	}
	// Exact core weights, upward then downward from the mode.
	w := h.w[:0]
	w = append(w, 1.0)
	sumUp := 1.0
	wk := 1.0
	for k := mode; k < ch; k++ {
		r := hypUp(N, K, n, k)
		wk = wk * r
		w = append(w, wk)
		sumUp = sumUp + wk
	}
	up := len(w) // core entries at indices mode..ch
	wk = 1.0
	sumDown := 0.0
	for k := mode; k > cl; k-- {
		r := hypDown(N, K, n, k)
		wk = wk * r
		w = append(w, wk)
		sumDown = sumDown + wk
	}
	down := len(w) - up // core entries at indices mode−1..cl
	h.w = w

	// Geometric tail majorants: mass w(edge)·r/(1−r) beyond each core edge,
	// with r the edge's outward ratio (< 1, since each edge lies at least
	// one step past the mode).
	var rHi, massHi, rLo, massLo float64
	if ch < hi {
		rHi = hypUp(N, K, n, ch)
		t := w[up-1] * rHi
		massHi = t / (1 - rHi)
	}
	if cl > lo {
		rLo = hypDown(N, K, n, cl)
		t := w[len(w)-1] * rLo
		massLo = t / (1 - rLo)
	}
	// Envelope layout on [0, total): core below the mode (inverted outward
	// from the mode), core from the mode up, upper majorant, lower majorant.
	// The layout, each region's accumulation order and the side-stream use
	// are part of the determinism contract.
	core := sumDown + sumUp
	hiEnd := core + massHi
	total := hiEnd + massLo

	u := rng.Uint64()
	x := uniform53(u)
	var side Stream
	sideSeeded := false
	for {
		target := x * total
		if target < sumDown {
			// k < mode: walk down from the mode, peeling weights off sumDown;
			// rounding can leave target below every partial sum, so the walk
			// clamps to the core's lower edge.
			rem := sumDown
			for i := 0; i < down; i++ {
				rem = rem - w[up+i]
				if target >= rem {
					return mode - int64(i) - 1
				}
			}
			return cl
		}
		if target < core {
			cum := sumDown
			for i := 0; i < up; i++ {
				cum = cum + w[i]
				if target < cum {
					return mode + int64(i)
				}
			}
			return ch
		}
		if !sideSeeded {
			side = Stream{state: mix64(u + hypRejectSalt)}
			sideSeeded = true
		}
		// A tail: walk the majorant outward from the edge, carrying the exact
		// weight alongside, until the cumulative majorant passes the target.
		// A walk that leaves the support, or stops making floating-point
		// progress, has hit zero true mass: reject.
		var k int64
		var g, wt float64
		found := false
		if target < hiEnd {
			t := target - core
			k, g, wt = ch, w[up-1], w[up-1]
			cum := 0.0
			for k < hi {
				r := hypUp(N, K, n, k)
				wt = wt * r
				g = g * rHi
				k++
				next := cum + g
				if t < next {
					found = true
					break
				}
				if next == cum {
					break
				}
				cum = next
			}
		} else {
			t := target - hiEnd
			k, g, wt = cl, w[len(w)-1], w[len(w)-1]
			cum := 0.0
			for k > lo {
				r := hypDown(N, K, n, k)
				wt = wt * r
				g = g * rLo
				k--
				next := cum + g
				if t < next {
					found = true
					break
				}
				if next == cum {
					break
				}
				cum = next
			}
		}
		if found {
			a := uniform53(side.Uint64())
			a = a * g
			if a < wt {
				return k
			}
		}
		x = uniform53(side.Uint64())
	}
}

// SplitCounts deals a counts vector into P slices of the given sizes
// (len(sizes) == P, Σ sizes == counts.N()) uniformly at random without
// replacement — the exact finite-population ("multivariate hypergeometric")
// analogue of a multinomial split, used by the sharded×counts hybrid to
// re-deal agents between worker slices at epoch barriers. out must hold P
// destination vectors, each at least len(counts) long; they are overwritten.
// Draw order (slice-major, then state-major, each conditioned on the
// remaining pool) is part of the determinism contract.
func (h *HypSampler) SplitCounts(rng *BufStream, counts []int64, sizes []int64, out [][]int64) {
	nStates := len(counts)
	var poolN int64
	for _, c := range counts {
		poolN += c
	}
	remaining := make([]int64, nStates)
	copy(remaining, counts)
	for w := 0; w < len(sizes); w++ {
		dst := out[w]
		need := sizes[w]
		if w == len(sizes)-1 {
			// Exact remainder: the last slice takes everything left.
			for q := 0; q < nStates; q++ {
				dst[q] = remaining[q]
				remaining[q] = 0
			}
			for q := nStates; q < len(dst); q++ {
				dst[q] = 0
			}
			continue
		}
		nRem := poolN
		for q := 0; q < nStates; q++ {
			if need == 0 {
				dst[q] = 0
				nRem -= remaining[q]
				continue
			}
			k := h.Draw(rng, nRem, remaining[q], need)
			dst[q] = k
			need -= k
			nRem -= remaining[q]
			remaining[q] -= k
			poolN -= k
		}
		for q := nStates; q < len(dst); q++ {
			dst[q] = 0
		}
	}
}
