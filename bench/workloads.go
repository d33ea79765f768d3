package main

import "dyncoll"

// workload is one fixed set of inputs: sizes, mix and deployment. The
// figures are part of the benchmark's definition; a run varies only the
// seed.
type workload struct {
	name           string
	clients        int // closed-loop callers
	corpus         int // bytes preloaded
	minLen, maxLen int // document length range (Zipf within it)
	ingestBatch    int // documents per preload batch
	batch          int // documents per measured insert
	// deleteRecent: deletes take the client's own recent inserts and
	// never touch the preload. Otherwise they take the oldest documents
	// and the corpus turns over.
	deleteRecent bool
	// paced: the client waits for background builds to land after each
	// write before it sends its next op. The wait is inside the round's
	// wall time and CPU but outside the write's latency. It makes the
	// ladder's shape a function of the op stream alone; unpaced, the
	// same seed gives read latencies that differ by a factor of two
	// from run to run, depending on which builds won which races.
	paced bool
	// warmRounds is how many discarded rounds end a set-up. Where the
	// corpus must stay small a second one keeps setup_s above a second
	// and a half of real work.
	warmRounds int
	// mix is ops per class per client per round. A round's deletes
	// remove as many documents as its inserts add, so every round
	// starts from the same size.
	mix [numClasses]int
	// nominalOpsPerS is the throughput this workload read on the machine
	// the benchmark was defined on. It only converts --seconds into a
	// round count; it is not a target.
	nominalOpsPerS float64
	// build makes the initial state under dir; counting asks for the
	// log's filesystem calls to be counted (a traced run).
	build func(dir string, docs []dyncoll.Document, w *workload, counting bool) (system, error)
}

// minSamples is the fewest latency samples every op class gets in a run.
const minSamples = 500

// roundsFor turns a measuring time into a fixed number of rounds: the
// load is a count of ops, not a duration, so that two runs of one seed
// do the same work however fast the machine is that day. It never
// returns fewer rounds than give the rarest class its minSamples.
func (w *workload) roundsFor(seconds float64) int {
	perRound, rarest := 0, w.mix[0]
	for _, n := range w.mix {
		perRound += n * w.clients
		rarest = min(rarest, n*w.clients)
	}
	atLeast := (minSamples + rarest - 1) / rarest
	return max(atLeast, int(seconds*w.nominalOpsPerS/float64(perRound)+0.5))
}

// deleteBatch is the documents per delete that keeps a round
// size-neutral.
func (w *workload) deleteBatch() int { return w.batch * w.mix[opInsert] / w.mix[opDelete] }

// The sizes are the issue's: lib_query far beyond the 4 MiB L2 (its
// index is about 55 MB), lib_churn and durable_restart a few times it,
// fleet_mixed small because index work is not what it measures. Rounds
// are sized to last between half a second and a second, so that a run of
// 20 s has twenty to forty of them and the median over rounds shrugs off
// a burst from a neighbour.
var workloads = []*workload{
	{
		name: "lib_query", clients: 1, nominalOpsPerS: 1150, corpus: 16 << 20, minLen: 64, maxLen: 4096, ingestBatch: 256, batch: 4, deleteRecent: true, paced: true, warmRounds: 1,
		mix: [numClasses]int{opCount: 210, opFind: 150, opExtract: 90, opSearch: 90, opInsert: 30, opDelete: 30},
		build: func(dir string, docs []dyncoll.Document, w *workload, _ bool) (system, error) {
			return newLibSys(dir, docs, w.ingestBatch, true)
		},
	},
	{
		name: "lib_churn", clients: 1, nominalOpsPerS: 280, corpus: 4 << 20, minLen: 64, maxLen: 4096, ingestBatch: 256, batch: 8, paced: true, warmRounds: 4,
		mix: [numClasses]int{opCount: 20, opFind: 20, opExtract: 20, opSearch: 20, opInsert: 40, opDelete: 40},
		build: func(dir string, docs []dyncoll.Document, w *workload, _ bool) (system, error) {
			return newLibSys(dir, docs, w.ingestBatch, false, dyncoll.WithShards(2))
		},
	},
	{
		name: "durable_restart", clients: 1, nominalOpsPerS: 240, corpus: 5 << 20, minLen: 64, maxLen: 4096, ingestBatch: 256, batch: 8, paced: true, warmRounds: 4,
		mix: [numClasses]int{opCount: 20, opFind: 20, opExtract: 20, opSearch: 20, opInsert: 40, opDelete: 20},
		build: func(dir string, docs []dyncoll.Document, w *workload, counting bool) (system, error) {
			return newDurableSys(dir, docs, w.ingestBatch, 8<<20, counting)
		},
	},
	{
		name: "fleet_mixed", clients: 2, nominalOpsPerS: 900, corpus: 2 << 20, minLen: 256, maxLen: 1024, ingestBatch: 512, batch: 8, warmRounds: 3,
		mix: [numClasses]int{opCount: 90, opFind: 70, opExtract: 60, opSearch: 30, opInsert: 22, opDelete: 22},
		build: func(dir string, docs []dyncoll.Document, w *workload, _ bool) (system, error) {
			return newFleetSys(dir, docs, w.ingestBatch, w.clients)
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
