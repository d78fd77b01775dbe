// Package datagen synthesizes offline clones of the eight Magellan ER
// benchmarks in the paper's Table II. Each clone reproduces the original's
// schema width, candidate-pair count, and match count exactly, and its
// pair-similarity geometry approximately: matches are perturbed copies
// drawn from a mixture of noise profiles (typos, token drops,
// abbreviations, missing values, boilerplate), and non-matches mix hard
// negatives (near-duplicates of distinct entities, the kind blocking lets
// through) with easy random ones.
//
// The per-dataset Hardness knob controls how aggressive match perturbation
// and hard-negative closeness are; it is calibrated so the relative
// difficulty ordering of the original benchmarks (AG hardest, FZ easiest)
// carries over. See docs/ARCHITECTURE.md, "Offline substitutions".
package datagen

import (
	"fmt"
	"math/rand"
	"strings"

	"batcher/internal/entity"
)

// Spec describes one benchmark clone.
type Spec struct {
	// Name is the dataset code used throughout the paper ("WA", ...).
	Name string
	// Domain matches Table II's domain column.
	Domain string
	// Attrs is the schema (width matches Table II's #Attr).
	Attrs []string
	// NumPairs and NumMatches match Table II.
	NumPairs, NumMatches int
	// Hardness in [0,1] scales match perturbation strength and
	// hard-negative closeness.
	Hardness float64
	// HardNegShare is the fraction of non-matching pairs that are hard
	// negatives rather than random pairs.
	HardNegShare float64
	// ProfileWeights is the mixture over perturbation profiles for
	// matches; length numProfiles.
	ProfileWeights []float64
	// gen draws a fresh base record for the domain.
	gen func(r *rand.Rand, id int) []string
	// hardNeg derives a near-miss record from a base record.
	hardNeg func(r *rand.Rand, base []string) []string
}

// Catalog returns the specs for all eight Table II datasets, keyed by code.
// The returned slice is ordered as in the paper's tables.
func Catalog() []Spec {
	return []Spec{
		{
			Name: "WA", Domain: "Electronics",
			Attrs:    []string{"title", "category", "brand", "modelno", "price"},
			NumPairs: 10242, NumMatches: 962,
			Hardness: 0.55, HardNegShare: 0.55,
			ProfileWeights: []float64{1, 2, 2, 1.5, 1, 1.5},
			gen:            genElectronics, hardNeg: hardNegElectronics,
		},
		{
			Name: "AB", Domain: "Product",
			Attrs:    []string{"name", "description", "price"},
			NumPairs: 9575, NumMatches: 1028,
			Hardness: 0.42, HardNegShare: 0.62,
			ProfileWeights: []float64{1.5, 2, 2, 1, 1, 1.5},
			gen:            genAbtBuy, hardNeg: hardNegAbtBuy,
		},
		{
			Name: "AG", Domain: "Software",
			Attrs:    []string{"title", "manufacturer", "price"},
			NumPairs: 11460, NumMatches: 1167,
			Hardness: 0.88, HardNegShare: 0.5,
			ProfileWeights: []float64{0.2, 1.5, 3.5, 2.5, 3, 1},
			gen:            genSoftware, hardNeg: hardNegSoftware,
		},
		{
			Name: "DS", Domain: "Citation",
			Attrs:    []string{"title", "authors", "venue", "year"},
			NumPairs: 28707, NumMatches: 5347,
			Hardness: 0.62, HardNegShare: 0.5,
			ProfileWeights: []float64{0.5, 2, 2.5, 3, 2.5, 0.5},
			gen:            genCitation, hardNeg: hardNegCitation(0.85),
		},
		{
			Name: "DA", Domain: "Citation",
			Attrs:    []string{"title", "authors", "venue", "year"},
			NumPairs: 12363, NumMatches: 2220,
			Hardness: 0.3, HardNegShare: 0.45,
			ProfileWeights: []float64{2.5, 1.5, 1, 1.5, 0.5, 0.5},
			gen:            genCitation, hardNeg: hardNegCitation(0.3),
		},
		{
			Name: "FZ", Domain: "Restaurant",
			Attrs:    []string{"name", "addr", "city", "phone", "type", "class"},
			NumPairs: 946, NumMatches: 110,
			Hardness: 0.10, HardNegShare: 0.25,
			ProfileWeights: []float64{3, 1, 1, 1, 0.5, 0.3},
			gen:            genRestaurant, hardNeg: hardNegRestaurant,
		},
		{
			Name: "IA", Domain: "Music",
			Attrs: []string{"song_name", "artist_name", "album_name",
				"genre", "price", "copyright", "time", "released"},
			NumPairs: 532, NumMatches: 132,
			Hardness: 0.3, HardNegShare: 0.5,
			ProfileWeights: []float64{2, 1.5, 1, 1, 1, 0.8},
			gen:            genMusic, hardNeg: hardNegMusic,
		},
		{
			Name: "Beer", Domain: "Beer",
			Attrs:    []string{"beer_name", "brew_factory_name", "style", "abv"},
			NumPairs: 450, NumMatches: 68,
			Hardness: 0.18, HardNegShare: 0.35,
			ProfileWeights: []float64{2, 1.5, 1.2, 1, 0.8, 0.5},
			gen:            genBeer, hardNeg: hardNegBeer,
		},
	}
}

// Lookup finds the spec for a dataset code.
func Lookup(name string) (Spec, error) {
	for _, s := range Catalog() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("datagen: unknown dataset %q", name)
}

// Names lists dataset codes in table order.
func Names() []string {
	specs := Catalog()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// Generate materializes the dataset for a spec with the given seed. The
// same (spec, seed) always yields byte-identical output.
func Generate(spec Spec, seed int64) *entity.Dataset {
	rnd := rand.New(rand.NewSource(seed ^ int64(len(spec.Name))*7919))
	d := &entity.Dataset{Name: spec.Name, Domain: spec.Domain}
	numNeg := spec.NumPairs - spec.NumMatches
	numHard := int(float64(numNeg) * spec.HardNegShare)
	numEasy := numNeg - numHard

	seen := make(map[string]bool)
	nextID := 0
	newBase := func() []string {
		// Reject duplicate base entities so non-matches are never
		// accidental matches.
		for {
			vals := spec.gen(rnd, nextID)
			key := fmt.Sprint(vals)
			if !seen[key] {
				seen[key] = true
				return vals
			}
		}
	}
	addPair := func(aVals, bVals []string, label entity.Label) {
		a := entity.NewRecord(fmt.Sprintf("%s-a%d", spec.Name, nextID), spec.Attrs, aVals)
		nextID++
		b := entity.NewRecord(fmt.Sprintf("%s-b%d", spec.Name, nextID), spec.Attrs, bVals)
		nextID++
		d.TableA = append(d.TableA, a)
		d.TableB = append(d.TableB, b)
		d.Pairs = append(d.Pairs, entity.Pair{A: a, B: b, Truth: label})
	}

	pt := &perturber{rnd: rnd, strength: spec.Hardness}

	// Matches: base entity + profile-perturbed copy.
	for i := 0; i < spec.NumMatches; i++ {
		base := newBase()
		prof := pickProfile(rnd, spec.ProfileWeights)
		copyVals := perturbRecord(pt, prof, spec.Attrs, base)
		addPair(base, copyVals, entity.Match)
	}
	// Hard negatives: base entity + near-miss of a *different* entity,
	// lightly perturbed so it does not look cleaner than real matches.
	for i := 0; i < numHard; i++ {
		base := newBase()
		neg := spec.hardNeg(rnd, base)
		light := &perturber{rnd: rnd, strength: spec.Hardness * 0.2}
		prof := pickProfile(rnd, spec.ProfileWeights)
		neg = perturbRecord(light, prof, spec.Attrs, neg)
		addPair(base, neg, entity.NonMatch)
	}
	// Easy negatives: two independent entities.
	for i := 0; i < numEasy; i++ {
		addPair(newBase(), newBase(), entity.NonMatch)
	}

	// Shuffle deterministically so class and profile runs do not leak
	// ordering information to downstream consumers.
	rnd.Shuffle(len(d.Pairs), func(i, j int) { d.Pairs[i], d.Pairs[j] = d.Pairs[j], d.Pairs[i] })
	return d
}

// GenerateByName is Generate for a dataset code.
func GenerateByName(name string, seed int64) (*entity.Dataset, error) {
	spec, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return Generate(spec, seed), nil
}

// perturbRecord applies the profile to each attribute of a record, with
// profile-specific record-level effects (missing values, price formats).
// Beyond the profile edits, every non-identifier attribute independently
// goes missing with a strength-scaled probability — real benchmark tables
// (notably Amazon-Google's manufacturer column) are riddled with empty
// cells, and this is what drags recall down on the dirty datasets.
func perturbRecord(pt *perturber, prof profile, attrs, vals []string) []string {
	out := append([]string(nil), vals...)
	for i, attr := range attrs {
		switch {
		case i != 0 && pt.rnd.Float64() < 0.28*pt.strength:
			out[i] = ""
		case prof == profileMissing && pt.rnd.Float64() < 0.35+0.3*pt.strength && i != 0:
			// First attribute (name/title) survives; others may vanish.
			out[i] = ""
		case attr == "price" && out[i] != "":
			out[i] = pt.perturbPrice(out[i])
		default:
			out[i] = pt.apply(prof, out[i])
		}
	}
	return out
}

// --- Domain generators ---------------------------------------------------

func pick(r *rand.Rand, list []string) string { return list[r.Intn(len(list))] }

func genElectronics(r *rand.Rand, id int) []string {
	brand := pick(r, electronicsBrands)
	typ := pick(r, electronicsTypes)
	qual := pick(r, electronicsQualifiers)
	model := fmt.Sprintf("%s%d%s", string(rune('a'+r.Intn(26))), 100+r.Intn(9000), string(rune('a'+r.Intn(26))))
	title := fmt.Sprintf("%s %s %s %s", brand, typ, model, qual)
	price := fmt.Sprintf("%d.%02d", 20+r.Intn(1800), r.Intn(100))
	return []string{title, pick(r, productCategories), brand, model, price}
}

func hardNegElectronics(r *rand.Rand, base []string) []string {
	// Same brand and type, adjacent model number: the classic blocker
	// survivor.
	out := append([]string(nil), base...)
	model := base[3]
	newModel := model
	if len(model) > 2 {
		newModel = model[:1] + numericNear(r, 100+r.Intn(9000)) + model[len(model)-1:]
	}
	out[3] = newModel
	out[0] = replaceOnce(base[0], model, newModel)
	out[4] = fmt.Sprintf("%d.%02d", 20+r.Intn(1800), r.Intn(100))
	return out
}

func genAbtBuy(r *rand.Rand, id int) []string {
	brand := pick(r, electronicsBrands)
	typ := pick(r, electronicsTypes)
	model := fmt.Sprintf("%s-%d", string(rune('a'+r.Intn(26))), 10+r.Intn(990))
	name := fmt.Sprintf("%s %s %s", brand, typ, model)
	desc := fmt.Sprintf("%s %s with %s and %s", brand, typ,
		pick(r, electronicsQualifiers), pick(r, electronicsQualifiers))
	price := fmt.Sprintf("%d.%02d", 15+r.Intn(2500), r.Intn(100))
	return []string{name, desc, price}
}

func hardNegAbtBuy(r *rand.Rand, base []string) []string {
	out := append([]string(nil), base...)
	// Same brand/type family, different model token.
	newModel := fmt.Sprintf("%s-%d", string(rune('a'+r.Intn(26))), 10+r.Intn(990))
	toks := splitLast(base[0])
	out[0] = toks + " " + newModel
	if r.Float64() < 0.4 {
		out[2] = fmt.Sprintf("%d.%02d", 15+r.Intn(2500), r.Intn(100))
	}
	return out
}

func genSoftware(r *rand.Rand, id int) []string {
	title := fmt.Sprintf("%s %s %d", pick(r, softwareTitles), pick(r, softwareEditions), 2000+r.Intn(10))
	manu := pick(r, softwareManufacturers)
	price := fmt.Sprintf("%d.%02d", 10+r.Intn(500), r.Intn(100))
	return []string{title, manu, price}
}

func hardNegSoftware(r *rand.Rand, base []string) []string {
	out := append([]string(nil), base...)
	// Same product family, different edition or year — AG's notorious
	// near-miss structure.
	toks := splitFields(base[0])
	if len(toks) >= 3 {
		if r.Intn(2) == 0 {
			toks[len(toks)-2] = pick(r, softwareEditions)
		} else {
			toks[len(toks)-1] = fmt.Sprintf("%d", 2000+r.Intn(10))
		}
	}
	out[0] = joinFields(toks)
	return out
}

func genCitation(r *rand.Rand, id int) []string {
	nw := 4 + r.Intn(4)
	words := make([]string, nw)
	for i := range words {
		words[i] = pick(r, paperTitleWords)
	}
	title := joinFields(words)
	na := 1 + r.Intn(3)
	authors := make([]string, na)
	for i := range authors {
		authors[i] = pick(r, authorFirst) + " " + pick(r, authorLast)
	}
	year := fmt.Sprintf("%d", 1985+r.Intn(25))
	return []string{title, joinWith(authors, ", "), pick(r, venuesDBLP), year}
}

func hardNegCitation(hardness float64) func(r *rand.Rand, base []string) []string {
	// Harder datasets keep more title words in common with the base
	// paper; easier ones replace more, leaving the negative recognizable.
	frac := 0.7 - 0.55*hardness
	return func(r *rand.Rand, base []string) []string {
		out := append([]string(nil), base...)
		// Same venue and era, overlapping title words (e.g. the follow-up
		// paper by the same group).
		toks := splitFields(base[0])
		for i := range toks {
			if r.Float64() < frac {
				toks[i] = pick(r, paperTitleWords)
			}
		}
		out[0] = joinFields(toks)
		if r.Intn(2) == 0 {
			out[1] = pick(r, authorFirst) + " " + pick(r, authorLast) + ", " + out[1]
		}
		return out
	}
}

func genRestaurant(r *rand.Rand, id int) []string {
	name := pick(r, restaurantNames1) + " " + pick(r, restaurantNames2)
	// A third name token keeps accidental full-name collisions between
	// unrelated restaurants rare, as in the real Fodors-Zagats data.
	switch r.Intn(3) {
	case 0:
		name += " " + pick(r, cuisines)
	case 1:
		name += " " + pick(r, restaurantNames2)
	}
	addr := fmt.Sprintf("%d %s", 10+r.Intn(9000), pick(r, streetNames))
	city := pick(r, cities)
	phone := fmt.Sprintf("%d-%d-%d", 200+r.Intn(700), 200+r.Intn(700), 1000+r.Intn(9000))
	class := fmt.Sprintf("%d", r.Intn(700))
	return []string{name, addr, city, phone, pick(r, cuisines), class}
}

func hardNegRestaurant(r *rand.Rand, base []string) []string {
	out := append([]string(nil), base...)
	// A different restaurant in the same naming family: one name word
	// swapped, plus fresh address/phone. Fodors-Zagats is nearly
	// separable in practice, so its hard negatives stay recognizable.
	toks := splitFields(base[0])
	if len(toks) >= 2 {
		toks[0] = pick(r, restaurantNames1)
		toks[len(toks)-1] = pick(r, restaurantNames2)
	}
	out[0] = joinFields(toks)
	out[1] = fmt.Sprintf("%d %s", 10+r.Intn(9000), pick(r, streetNames))
	out[2] = pick(r, cities)
	out[3] = fmt.Sprintf("%d-%d-%d", 200+r.Intn(700), 200+r.Intn(700), 1000+r.Intn(9000))
	if r.Intn(2) == 0 {
		out[4] = pick(r, cuisines)
	}
	out[5] = fmt.Sprintf("%d", r.Intn(700))
	return out
}

func genMusic(r *rand.Rand, id int) []string {
	song := pick(r, songWords) + " " + pick(r, songWords)
	artist := pick(r, artistFirst) + " " + pick(r, artistLast)
	album := pick(r, songWords) + " " + pick(r, songWords) + " " + pick(r, songWords)
	genre := pick(r, genres) + ", music"
	price := fmt.Sprintf("%d.%02d", r.Intn(2), 29+r.Intn(70))
	copyright := fmt.Sprintf("%d %s", 1990+r.Intn(30), pick(r, musicLabels))
	duration := fmt.Sprintf("%d:%02d", 2+r.Intn(4), r.Intn(60))
	released := fmt.Sprintf("%s %d, %d", []string{"january", "march", "june", "september", "november"}[r.Intn(5)], 1+r.Intn(28), 1990+r.Intn(30))
	return []string{song, artist, album, genre, price, copyright, duration, released}
}

func hardNegMusic(r *rand.Rand, base []string) []string {
	out := append([]string(nil), base...)
	// Same artist and album, different track — iTunes-Amazon's hallmark
	// hard case.
	out[0] = pick(r, songWords) + " " + pick(r, songWords)
	out[6] = fmt.Sprintf("%d:%02d", 2+r.Intn(4), r.Intn(60))
	return out
}

func genBeer(r *rand.Rand, id int) []string {
	name := pick(r, beerWords) + " " + pick(r, beerWords) + " " + pick(r, beerStyles)
	brewery := pick(r, breweryWords1) + " " + pick(r, breweryWords2)
	abv := fmt.Sprintf("%.1f%%", 3.5+r.Float64()*9)
	return []string{name, brewery, pick(r, beerStyles), abv}
}

func hardNegBeer(r *rand.Rand, base []string) []string {
	out := append([]string(nil), base...)
	// Same brewery, different beer: fresh descriptor words and usually a
	// different style, so the name is clearly distinct.
	style := pick(r, beerStyles)
	out[0] = pick(r, beerWords) + " " + pick(r, beerWords) + " " + style
	out[2] = style
	out[3] = fmt.Sprintf("%.1f%%", 3.5+r.Float64()*9)
	return out
}

// --- Small string helpers --------------------------------------------------

func splitFields(s string) []string { return strings.Fields(s) }

func joinFields(toks []string) string { return strings.Join(toks, " ") }

func joinWith(toks []string, sep string) string { return strings.Join(toks, sep) }

// splitLast drops the final whitespace-separated token of s.
func splitLast(s string) string {
	toks := splitFields(s)
	if len(toks) < 2 {
		return s
	}
	return joinFields(toks[:len(toks)-1])
}

func replaceOnce(s, old, new string) string {
	return strings.Replace(s, old, new, 1)
}
