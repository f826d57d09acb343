package main

import "context"

// A serve workload measures the program against a reference, the replay
// server, at the same moments. On the host these figures come from, a
// core's speed flips between about 1 and 1.6 times its slowest every 0.1
// to 1 s, as other tenants load the core's other hardware thread, and the
// hypervisor at times takes a third of the machine's time. No two moments
// are alike, so one loop sends its requests to the two in alternation:
// each side's samples spread over the same moments, and the program's
// figure over the reference's cancels what the host did meanwhile.

// mixer alternates the requests of one or more consecutive loops between
// x and ref: even-numbered requests go to x and odd-numbered ones to ref,
// and request n is the n/2-th of its side, so both sides walk the request
// sequence in the same order. Each loop continues the numbering where the
// last one stopped.
type mixer struct {
	x, ref opFunc
	next   int
}

func (m *mixer) op(ctx context.Context, w, n int) error {
	if n%2 == 0 {
		return m.x(ctx, w, n/2)
	}
	return m.ref(ctx, w, n/2)
}

// run runs one loop over m's requests from m.next on, and returns its
// samples numbered as m numbers requests. loop numbers its requests from 0
// and returns one sample per request number it used.
func (m *mixer) run(loop func(opFunc) []sample) []sample {
	off := m.next
	samples := loop(func(ctx context.Context, w, i int) error { return m.op(ctx, w, off+i) })
	for j := range samples {
		samples[j].i += off
	}
	m.next += len(samples)
	return samples
}

// split divides the samples of a mixer's loops into x's and ref's.
func split(samples []sample) (x, ref []sample) {
	for _, s := range samples {
		if s.i%2 == 0 {
			x = append(x, s)
		} else {
			ref = append(ref, s)
		}
	}
	return x, ref
}
