package main

import "time"

// record is one executed operation.
type record struct {
	op    *op
	lat   time.Duration
	err   error // transport-level failure (status, decode); oracles run later
	out   any   // the entry point's reply, checked after the timed phase
	ver   int   // mutation batches applied when the op ran (write-churn)
	round int   // the round the op ran in
}

// runRounds runs whole rounds from one closed-loop client until the time
// budget is spent, and at least minRounds of them. A round's ops run in
// order, so each sees the state the round's earlier ops left. One client
// leaves the second CPU to the server's goroutines and the collector:
// with one client per CPU the runs of one commit spread by 15–28% in
// latency, rate and resident set, wider than any bound.
func runRounds(budget time.Duration, minRounds int, ops func(round int) []op,
	exec func(o *op) record) (recs []record, elapsed time.Duration, rounds int) {
	start := time.Now()
	for rounds < minRounds || time.Since(start) < budget {
		round := ops(rounds)
		for i := range round {
			rec := exec(&round[i])
			rec.round = rounds
			recs = append(recs, rec)
		}
		rounds++
	}
	return recs, time.Since(start), rounds
}

// timed runs fn and returns its duration.
func timed(fn func()) time.Duration {
	t := time.Now()
	fn()
	return time.Since(t)
}
