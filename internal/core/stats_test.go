package core

import "testing"

func TestMeanStddev(t *testing.T) {
	mu, sigma := meanStddev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if mu != 5 {
		t.Errorf("mu = %v, want 5", mu)
	}
	if sigma != 2 {
		t.Errorf("sigma = %v, want 2", sigma)
	}
	mu, sigma = meanStddev(nil)
	if mu != 0 || sigma != 0 {
		t.Errorf("empty input: mu=%v sigma=%v", mu, sigma)
	}
}

func TestChauvenetRejectsExtremeOutlier(t *testing.T) {
	xs := []float64{10, 11, 9, 10, 12, 10, 11, 1e6}
	kept, rejected := chauvenetReject(xs)
	if !rejected[len(xs)-1] {
		t.Error("extreme outlier not rejected")
	}
	if len(kept) != len(xs)-1 {
		t.Errorf("kept %d, want %d", len(kept), len(xs)-1)
	}
	for i := 0; i < len(xs)-1; i++ {
		if rejected[i] {
			t.Errorf("sample %d wrongly rejected", i)
		}
	}
}

func TestChauvenetKeepsHomogeneous(t *testing.T) {
	xs := []float64{5, 5, 5, 5, 5}
	kept, rejected := chauvenetReject(xs)
	if len(kept) != len(xs) {
		t.Error("homogeneous data should all be kept")
	}
	for _, r := range rejected {
		if r {
			t.Error("no sample should be rejected")
		}
	}
}

func TestChauvenetSmallSamples(t *testing.T) {
	xs := []float64{1, 100}
	kept, _ := chauvenetReject(xs)
	if len(kept) != 2 {
		t.Error("fewer than 3 samples must never be rejected")
	}
}

func TestDelayDecisionsMuSigma(t *testing.T) {
	// Homogeneous cardinalities with one huge subquery: only the huge one
	// crosses μ+σ after Chauvenet removes it from the statistics.
	cards := []float64{10, 10, 10, 10, 100000}
	eps := []float64{2, 2, 2, 2, 2}
	delayed := delayDecisions(cards, eps, nil, ThresholdMuSigma)
	want := []bool{false, false, false, false, true}
	for i := range want {
		if delayed[i] != want[i] {
			t.Errorf("delayed[%d] = %v, want %v (cards=%v)", i, delayed[i], want[i], cards)
		}
	}
}

func TestDelayDecisionsMuDelaysMore(t *testing.T) {
	cards := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	eps := make([]float64, len(cards))
	muDelayed := delayDecisions(cards, eps, nil, ThresholdMu)
	muSigmaDelayed := delayDecisions(cards, eps, nil, ThresholdMuSigma)
	countMu, countMuSigma := 0, 0
	for i := range cards {
		if muDelayed[i] {
			countMu++
		}
		if muSigmaDelayed[i] {
			countMuSigma++
		}
	}
	if countMu <= countMuSigma {
		t.Errorf("μ should delay more than μ+σ: %d vs %d", countMu, countMuSigma)
	}
}

func TestDelayDecisionsOutliersOnly(t *testing.T) {
	cards := []float64{10, 12, 11, 13, 1e6}
	eps := make([]float64, len(cards))
	delayed := delayDecisions(cards, eps, nil, ThresholdOutliers)
	for i := 0; i < 4; i++ {
		if delayed[i] {
			t.Errorf("non-outlier %d delayed in outliers-only mode", i)
		}
	}
	if !delayed[4] {
		t.Error("outlier not delayed")
	}
}

func TestDelayDecisionsByEndpointCount(t *testing.T) {
	// Same cardinalities, but one subquery touches far more endpoints.
	cards := []float64{10, 10, 10, 10, 10}
	eps := []float64{2, 2, 2, 2, 200}
	delayed := delayDecisions(cards, eps, nil, ThresholdMuSigma)
	if !delayed[4] {
		t.Error("subquery touching many endpoints should be delayed")
	}
	for i := 0; i < 4; i++ {
		if delayed[i] {
			t.Errorf("subquery %d wrongly delayed", i)
		}
	}
}

// checkDelayed compares delayDecisions under each mode with want.
func checkDelayed(t *testing.T, cards, eps []float64, want []bool, modes ...ThresholdMode) {
	t.Helper()
	for _, mode := range modes {
		got := delayDecisions(cards, eps, nil, mode)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("mode %v: delayed[%d] = %v, want %v (cards=%v eps=%v)", mode, i, got[i], want[i], cards, eps)
			}
		}
	}
}

func TestDelayDecisionsLowOutlierNotDelayed(t *testing.T) {
	// Chauvenet rejects the most selective subquery of each set (LUBM
	// Q2's FullProfessor pattern, LRB S1's est-1 pattern); it runs as a
	// scan, and nothing else crosses μ+σ of the kept samples.
	for _, cards := range [][]float64{{200, 4000, 4000}, {1, 150, 180}} {
		if _, rejected := chauvenetReject(cards); !rejected[0] {
			t.Fatalf("%v: the low sample is not rejected; the case tests nothing", cards)
		}
		checkDelayed(t, cards, []float64{4, 4, 4}, []bool{false, false, false}, ThresholdMuSigma, ThresholdMu2Sigma, ThresholdOutliers)
	}
}

func TestDelayDecisionsLowEndpointOutlierNotDelayed(t *testing.T) {
	eps := []float64{1, 13, 13}
	if _, rejected := chauvenetReject(eps); !rejected[0] {
		t.Fatal("the low endpoint count is not rejected; the case tests nothing")
	}
	checkDelayed(t, []float64{10, 10, 10}, eps, []bool{false, false, false}, ThresholdMu, ThresholdMuSigma, ThresholdMu2Sigma, ThresholdOutliers)
}

func TestDelayDecisionsOutliersOnlyHigh(t *testing.T) {
	cards := []float64{1, 500, 500, 500, 500, 500, 500, 500, 500, 1000}
	_, rejected := chauvenetReject(cards)
	if !rejected[0] || !rejected[len(cards)-1] {
		t.Fatalf("rejected = %v, want the low and the high sample; the case tests nothing", rejected)
	}
	want := make([]bool, len(cards))
	want[len(cards)-1] = true
	checkDelayed(t, cards, make([]float64, len(cards)), want, ThresholdOutliers)
}

func TestDelayDecisionsHighOutlierDelayed(t *testing.T) {
	all := []ThresholdMode{ThresholdMu, ThresholdMuSigma, ThresholdMu2Sigma, ThresholdOutliers}
	checkDelayed(t, []float64{4000, 4000, 200000}, []float64{4, 4, 4}, []bool{false, false, true}, all...)
	checkDelayed(t, []float64{10, 10, 10}, []float64{2, 2, 40}, []bool{false, false, true}, all...)
}

func TestEnsureNonDelayed(t *testing.T) {
	sqs := []*Subquery{
		{EstCard: 50, Delayed: true},
		{EstCard: 10, Delayed: true},
		{EstCard: 70, Delayed: true},
	}
	ensureNonDelayed(sqs)
	if sqs[1].Delayed {
		t.Error("most selective subquery should be promoted")
	}
	if !sqs[0].Delayed || !sqs[2].Delayed {
		t.Error("other subqueries should stay delayed")
	}
}
