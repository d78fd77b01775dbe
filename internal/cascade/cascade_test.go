package cascade

import (
	"testing"

	"batcher/internal/datagen"
	"batcher/internal/entity"
)

func trainedPrefilter(t *testing.T, cfg Config) (*Prefilter, []entity.Pair) {
	t.Helper()
	d, err := datagen.GenerateByName("Beer", 1)
	if err != nil {
		t.Fatal(err)
	}
	split := entity.SplitPairs(d.Pairs)
	pf, err := Train(split.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pf, split.Test
}

func TestTrainAndRoute(t *testing.T) {
	pf, test := trainedPrefilter(t, Config{})
	r := pf.RouteAll(test)
	if len(r.Pred) != len(test) {
		t.Fatalf("Pred has %d entries for %d pairs", len(r.Pred), len(test))
	}
	if len(r.Amb) != len(r.AmbIdx) {
		t.Fatalf("Amb/AmbIdx misaligned: %d vs %d", len(r.Amb), len(r.AmbIdx))
	}
	if r.AutoYes+r.AutoNo+len(r.Amb) != len(test) {
		t.Errorf("routes do not partition: %d + %d + %d != %d", r.AutoYes, r.AutoNo, len(r.Amb), len(test))
	}
	if r.AutoYes+r.AutoNo == 0 {
		t.Error("pre-filter auto-resolved nothing on Beer; thresholds are useless")
	}
	// Auto-resolved positions carry labels; ambiguous ones stay Unknown.
	for _, i := range r.AmbIdx {
		if r.Pred[i] != entity.Unknown {
			t.Fatalf("ambiguous position %d pre-labeled %v", i, r.Pred[i])
		}
	}
	// Auto-resolution must be mostly right on the easy mass: that is the
	// whole premise of spending zero LLM calls on it.
	correct, auto := 0, 0
	for i, p := range test {
		if r.Pred[i] == entity.Unknown {
			continue
		}
		auto++
		if r.Pred[i] == p.Truth {
			correct++
		}
	}
	if auto > 0 && float64(correct)/float64(auto) < 0.9 {
		t.Errorf("auto-resolution accuracy %d/%d below 0.9", correct, auto)
	}
}

func TestIsotonicTrainAndRoute(t *testing.T) {
	pf, test := trainedPrefilter(t, Config{Isotonic: true})
	r := pf.RouteAll(test)
	if r.AutoYes+r.AutoNo+len(r.Amb) != len(test) {
		t.Errorf("routes do not partition under isotonic calibration")
	}
}

func TestWithThresholds(t *testing.T) {
	pf, test := trainedPrefilter(t, Config{})
	strict := pf.WithThresholds(0.001, 0.999)
	loose := pf.WithThresholds(0.4, 0.6)
	if strict.tauLo != 0.001 || strict.tauHi != 0.999 {
		t.Fatalf("thresholds = %v, %v", strict.tauLo, strict.tauHi)
	}
	rs := strict.RouteAll(test)
	rl := loose.RouteAll(test)
	if len(rs.Amb) < len(rl.Amb) {
		t.Errorf("stricter thresholds routed fewer pairs to the LLM: %d < %d", len(rs.Amb), len(rl.Amb))
	}
	// The shared scorer must be untouched by cloning.
	if pf.Prob(test[0]) != strict.Prob(test[0]) {
		t.Error("WithThresholds changed the scorer")
	}
}

func TestFingerprint(t *testing.T) {
	pf, _ := trainedPrefilter(t, Config{})
	fp := pf.Fingerprint()
	if len(fp) != 24 {
		t.Fatalf("fingerprint %q has length %d", fp, len(fp))
	}
	if pf.Fingerprint() != fp {
		t.Error("fingerprint not deterministic")
	}
	if pf.WithThresholds(0.2, 0.8).Fingerprint() == fp {
		t.Error("threshold change did not change the fingerprint")
	}
	iso, _ := trainedPrefilter(t, Config{Isotonic: true})
	if iso.Fingerprint() == fp {
		t.Error("calibrator change did not change the fingerprint")
	}
}

func TestTrainRejectsBadInput(t *testing.T) {
	d, err := datagen.GenerateByName("Beer", 1)
	if err != nil {
		t.Fatal(err)
	}
	pairs := d.Pairs
	if _, err := Train(nil, Config{}); err == nil {
		t.Error("empty training set accepted")
	}
	onlyPos := make([]entity.Pair, 0, 8)
	for _, p := range pairs {
		if p.Truth == entity.Match {
			onlyPos = append(onlyPos, p)
		}
		if len(onlyPos) == 8 {
			break
		}
	}
	if _, err := Train(onlyPos, Config{}); err == nil {
		t.Error("single-class training set accepted")
	}
	if _, err := Train(pairs, Config{TauLo: 0.9, TauHi: 0.1}); err == nil {
		t.Error("inverted thresholds accepted")
	}
}

func TestBootstrapLabels(t *testing.T) {
	d, err := datagen.GenerateByName("Beer", 1)
	if err != nil {
		t.Fatal(err)
	}
	unlabeled := append([]entity.Pair(nil), d.Pairs[:200]...)
	for i := range unlabeled {
		unlabeled[i].Truth = entity.Unknown
	}
	boot := BootstrapLabels(unlabeled)
	if len(boot) != len(unlabeled) {
		t.Fatalf("length changed: %d -> %d", len(unlabeled), len(boot))
	}
	var pos, neg int
	for _, p := range boot {
		switch p.Truth {
		case entity.Match:
			pos++
		case entity.NonMatch:
			neg++
		default:
			t.Fatal("bootstrap left an Unknown label")
		}
	}
	if pos == 0 || neg == 0 {
		t.Errorf("bootstrap produced a single class: %d pos / %d neg", pos, neg)
	}
	// Originals are untouched.
	if unlabeled[0].Truth != entity.Unknown {
		t.Error("BootstrapLabels mutated its input")
	}
	// A pre-filter trained on weak labels must still work.
	if _, err := Train(boot, Config{}); err != nil {
		t.Errorf("training on bootstrapped labels failed: %v", err)
	}
}

func TestRouteString(t *testing.T) {
	for r, want := range map[Route]string{
		RouteAutoNo:    "auto-no",
		RouteAmbiguous: "ambiguous",
		RouteAutoYes:   "auto-yes",
	} {
		if got := r.String(); got != want {
			t.Errorf("Route(%d).String() = %q, want %q", r, got, want)
		}
	}
}
