package harness

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
)

// simGolden pins the simulated results of seed-1 runs: the stats digest
// and the energy figure. Between them the cells wait on the fallback lock
// in all three ways — to start speculating (every cell but intruder/C,
// which never waits), to take the CL read lock (yada/C, bayes/W,
// labyrinth/W) and to take the lock for a fallback write (every cell with
// fallback commits) — and the last cell runs under the "default" fault
// plan, whose event delays perturb the waiters' polls. A host-side change
// must leave every line byte-identical; a deliberate change to simulated
// behaviour updates the table together with stats.DigestSchemaVersion.
var simGolden = []struct {
	cell       string
	cores, ops int
	plan       string
	digest     string
	energy     string
}{
	{"labyrinth/B", 32, 16, "", "cycles=2192927 commits=512 byMode=[191 0 0 321] byRetries=[71 45 38 15 22 0 0 0 0 0 0 0 0 0 0 0 0] aborts=4709 byBucket=[1859 1796 1054 0] instr=134793 abortedInstr=111341 discCycles=0 discRuns=0 linesLocked=0 lockRetries=0 scl=0 nscl=0 crt=0 l1=83236 pairs=169/451 fallbackAcq=321 powerClaims=0 lat=[0 0 0 0 0 0 0 14 23 10 3 5 17 18 57 56 88 173 48 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0] ar1={labyrinth/claimRoute commits=270 byMode=[0 0 0 270] aborts=2322} ar2={labyrinth/popWork commits=31 byMode=[0 0 0 31] aborts=340} ar3={labyrinth/pushResult commits=20 byMode=[0 0 0 20] aborts=251}", "21922521.199999999"},
	{"yada/C", 32, 16, "", "cycles=588636 commits=512 byMode=[104 223 11 174] byRetries=[74 242 7 9 6 0 0 0 0 0 0 0 0 0 0 0 0] aborts=2394 byBucket=[1177 909 308 0] instr=75474 abortedInstr=148927 discCycles=247598 discRuns=313 linesLocked=995 lockRetries=1279 scl=231 nscl=11 crt=1 l1=78227 pairs=190/440 fallbackAcq=174 powerClaims=0 lat=[0 0 1 2 0 0 2 25 31 31 15 23 44 92 69 85 90 2 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0] ar1={yada/incBadCount commits=11 byMode=[0 0 11 0] aborts=11} ar2={yada/pushWork commits=102 byMode=[0 102 0 0] aborts=109} ar3={yada/popWork commits=90 byMode=[0 90 0 0] aborts=93} ar4={yada/insertTriangle commits=42 byMode=[0 11 0 31] aborts=237} ar5={yada/removeTriangle commits=55 byMode=[0 3 0 52] aborts=382} ar6={yada/cavityWalk commits=108 byMode=[0 17 0 91] aborts=653}", "6268178.600000000"},
	{"bayes/W", 32, 16, "", "cycles=198857 commits=512 byMode=[255 112 0 145] byRetries=[200 117 23 16 11 0 0 0 0 0 0 0 0 0 0 0 0] aborts=2426 byBucket=[980 952 494 0] instr=63408 abortedInstr=164544 discCycles=211761 discRuns=264 linesLocked=350 lockRetries=200 scl=204 nscl=0 crt=9 l1=85689 pairs=115/359 fallbackAcq=145 powerClaims=18 lat=[0 0 1 0 0 0 0 46 56 38 38 52 87 67 76 50 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0] ar1={bayes/pushTask commits=33 byMode=[0 29 0 4] aborts=55} ar2={bayes/popTask commits=37 byMode=[0 31 0 6] aborts=74} ar3={bayes/scanTasks commits=19 byMode=[0 0 0 19] aborts=150} ar4={bayes/insertEdge commits=28 byMode=[0 15 0 13] aborts=159} ar5={bayes/removeEdge commits=27 byMode=[0 3 0 24] aborts=196} ar6={bayes/scanEdges commits=27 byMode=[0 0 0 27] aborts=225} ar7={bayes/insertCandidate commits=29 byMode=[0 15 0 14] aborts=178} ar8={bayes/removeCandidate commits=16 byMode=[0 1 0 15] aborts=148} ar9={bayes/scanCandidates commits=23 byMode=[0 0 0 23] aborts=234} ar10={bayes/updateScore commits=1 byMode=[0 1 0 0] aborts=5} ar11={bayes/updateLogLik commits=2 byMode=[0 2 0 0] aborts=11} ar12={bayes/incParentCount commits=0 byMode=[0 0 0 0] aborts=5} ar13={bayes/touchNode commits=11 byMode=[0 11 0 0] aborts=24} ar14={bayes/refreshPrior commits=4 byMode=[0 4 0 0] aborts=10}", "2383311.200000000"},
	{"mwobject/B", 32, 32, "", "cycles=277915 commits=1024 byMode=[27 0 0 997] byRetries=[16 1 2 3 5 0 0 0 0 0 0 0 0 0 0 0 0] aborts=8581 byBucket=[5019 2932 630 0] instr=13312 abortedInstr=6526 discCycles=0 discRuns=0 linesLocked=0 lockRetries=0 scl=0 nscl=0 crt=0 l1=14137 pairs=989/989 fallbackAcq=997 powerClaims=0 lat=[0 0 0 0 15 0 1 0 0 1 5 46 384 572 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0] ar1={mwobject/add4 commits=997 byMode=[0 0 0 997] aborts=5649}", "2798119.000000000"},
	{"stack/P", 32, 32, "", "cycles=304398 commits=1024 byMode=[128 0 0 896] byRetries=[3 46 29 29 21 0 0 0 0 0 0 0 0 0 0 0 0] aborts=8751 byBucket=[4755 3221 775 0] instr=9690 abortedInstr=7872 discCycles=0 discRuns=0 linesLocked=0 lockRetries=0 scl=0 nscl=0 crt=0 l1=12716 pairs=846/1002 fallbackAcq=896 powerClaims=125 lat=[0 0 0 3 0 0 0 0 4 8 12 53 272 655 17 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0] ar1={stack/push commits=441 byMode=[0 0 0 441] aborts=2703} ar2={stack/pop commits=455 byMode=[0 0 0 455] aborts=2827}", "3092498.300000000"},
	{"intruder/C", 32, 32, "", "cycles=110338 commits=1024 byMode=[472 552 0 0] byRetries=[472 552 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0] aborts=552 byBucket=[552 0 0 0] instr=8195 abortedInstr=29805 discCycles=69040 discRuns=552 linesLocked=1082 lockRetries=9650 scl=552 nscl=0 crt=0 l1=33550 pairs=88/552 fallbackAcq=0 powerClaims=0 lat=[0 0 16 4 0 0 0 270 258 89 52 82 98 131 24 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0] ar1={intruder/popPacket commits=466 byMode=[0 466 0 0] aborts=466} ar2={intruder/updateFlowStats commits=64 byMode=[0 64 0 0] aborts=64} ar3={intruder/updateDecoderState commits=22 byMode=[0 22 0 0] aborts=22}", "1493806.800000000"},
	{"labyrinth/W", 32, 16, "default", "cycles=2215998 commits=512 byMode=[81 165 0 266] byRetries=[78 157 6 3 2 0 0 0 0 0 0 0 0 0 0 0 0] aborts=3385 byBucket=[1513 1277 592 3] instr=134820 abortedInstr=106479 discCycles=119231 discRuns=197 linesLocked=430 lockRetries=510 scl=175 nscl=0 crt=0 l1=81540 pairs=200/421 fallbackAcq=266 powerClaims=4 lat=[0 0 0 0 0 0 0 9 37 30 11 6 10 27 58 68 53 150 51 1 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0] ar1={labyrinth/claimRoute commits=266 byMode=[0 0 0 266] aborts=1916} ar2={labyrinth/popWork commits=85 byMode=[0 85 0 0] aborts=107} ar3={labyrinth/pushResult commits=80 byMode=[0 80 0 0] aborts=85}", "22188066.800000001"},
}

// TestSimulatedGolden compares fresh runs against simGolden. Unlike
// TestMachineDeterminism, which compares two runs of the same binary, it
// catches a change that moves results consistently.
func TestSimulatedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs seven 32-core simulations")
	}
	for _, g := range simGolden {
		t.Run(strings.ReplaceAll(g.cell, "/", "-"), func(t *testing.T) {
			bench, cfg, _ := strings.Cut(g.cell, "/")
			id, err := ParseConfig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			p := DefaultRunParams(bench, id)
			p.Cores, p.OpsPerThread, p.Seed = g.cores, g.ops, 1
			if g.plan != "" {
				if p.FaultPlan, err = fault.PresetPlan(g.plan); err != nil {
					t.Fatal(err)
				}
			}
			res, err := Run(p)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Stats.Digest(); got != g.digest {
				t.Errorf("digest changed:\n got %s\nwant %s", got, g.digest)
			}
			if got := fmt.Sprintf("%.9f", res.Energy); got != g.energy {
				t.Errorf("energy %s, want %s", got, g.energy)
			}
		})
	}
}
