package main

import "testing"

func series(base float64, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = base + step*float64(i%5)
	}
	return out
}

func TestJudge(t *testing.T) {
	parent := series(1.0, 0.01, 10) // 1.00..1.04, spread ~3%
	cases := []struct {
		name           string
		parent, change []float64
		better         string
		bound          float64
		want           string
	}{
		{"same runs", parent, parent, "lower", 0.1, "unchanged"},
		{"faster on every pair", parent, series(0.8, 0.01, 10), "lower", 0.1, "improved"},
		{"higher is better", parent, series(1.2, 0.01, 10), "higher", 0.1, "improved"},
		{"nine pairs are too few to claim a gain", parent[:9], series(0.8, 0.01, 9), "lower", 0.1, "unchanged"},
		{"gap inside the parent's spread", parent, series(0.995, 0.01, 10), "lower", 0.1, "unchanged"},
		{"slower beyond the bound", parent, series(1.2, 0.01, 10), "lower", 0.1, "regressed"},
		{"slower within the bound", parent, series(1.05, 0.01, 10), "lower", 0.1, "unchanged"},
		{"parent noisier than the bound", series(1, 0.2, 10), series(1.01, 0.2, 10), "lower", 0.1, "unresolved"},
		{"noisy and too few pairs, but every change run is better", series(1, 0.2, 9), series(0.1, 0.01, 9), "lower", 0.1, "unchanged"},
		{"no runs", nil, parent, "lower", 0.1, "missing"},
	}
	for _, c := range cases {
		if got := judge(c.parent, c.change, c.better, c.bound).Result; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCheckHostsRefusesOtherHosts(t *testing.T) {
	a := host{CPU: "Xeon", NProc: 2, GOMAXPROCS: 2, Go: "go1.24.0", GitHead: "a", CalibrationMS: 200}
	b := a
	b.GitHead, b.CalibrationMS = "b", 230 // recorded, not compared
	if err := checkHosts([]record{{Host: a}, {Host: b}}); err != nil {
		t.Errorf("same host refused: %v", err)
	}
	b.NProc = 4
	if err := checkHosts([]record{{Host: a}, {Host: b}}); err == nil {
		t.Error("results from hosts with different nproc were compared")
	}
}
