// Command ustridx is the command-line front end of the uncertain-string
// index library.
//
// Subcommands:
//
//	gen    -n 1000 -theta 0.3 [-docs] [-seed 1] [-corr 0] > data.ustr
//	       synthesise an uncertain string (or collection with -docs)
//	search -index data.ustr -p PATTERN -tau 0.2 [-taumin 0.1] [-probs]
//	       report match positions of PATTERN
//	list   -index coll.ustr -p PATTERN -tau 0.2 [-taumin 0.1] [-metric max|or]
//	       report documents containing PATTERN
//	stats  -index data.ustr [-taumin 0.1]
//	       print transformation and index size statistics
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/uncertain"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "search":
		err = cmdSearch(os.Args[2:])
	case "list":
		err = cmdList(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ustridx:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ustridx {gen|search|list|stats|verify} [flags]")
	os.Exit(2)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	n := fs.Int("n", 1000, "total positions")
	theta := fs.Float64("theta", 0.3, "fraction of uncertain positions")
	docs := fs.Bool("docs", false, "generate a collection instead of one string")
	seed := fs.Int64("seed", 1, "random seed")
	corr := fs.Int("corr", 0, "number of correlations per string")
	fs.Parse(args)
	cfg := uncertain.GenConfig{N: *n, Theta: *theta, Seed: *seed, Correlations: *corr}
	if *docs {
		return uncertain.WriteCollection(os.Stdout, uncertain.GenerateCollection(cfg))
	}
	return uncertain.Write(os.Stdout, uncertain.GenerateString(cfg))
}

func loadString(path string) (*uncertain.String, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return uncertain.Parse(f)
}

func loadCollection(path string) ([]*uncertain.String, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return uncertain.ParseCollection(f)
}

func cmdSearch(args []string) error {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	path := fs.String("index", "", "uncertain string file")
	pat := fs.String("p", "", "query pattern")
	tau := fs.Float64("tau", 0.2, "probability threshold")
	tauMin := fs.Float64("taumin", 0.1, "construction threshold")
	probs := fs.Bool("probs", false, "print per-match probabilities")
	fs.Parse(args)
	if *path == "" || *pat == "" {
		return fmt.Errorf("search requires -index and -p")
	}
	s, err := loadString(*path)
	if err != nil {
		return err
	}
	ix, err := uncertain.NewIndex(s, *tauMin)
	if err != nil {
		return err
	}
	if *probs {
		hits, err := ix.SearchHits([]byte(*pat), *tau)
		if err != nil {
			return err
		}
		for _, h := range hits {
			fmt.Printf("%d\t%.6f\n", h.Orig, h.Prob())
		}
		return nil
	}
	positions, err := ix.Search([]byte(*pat), *tau)
	if err != nil {
		return err
	}
	for _, p := range positions {
		fmt.Println(p)
	}
	return nil
}

func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	path := fs.String("index", "", "collection file")
	pat := fs.String("p", "", "query pattern")
	tau := fs.Float64("tau", 0.2, "probability threshold")
	tauMin := fs.Float64("taumin", 0.1, "construction threshold")
	metric := fs.String("metric", "max", "relevance metric: max or or")
	fs.Parse(args)
	if *path == "" || *pat == "" {
		return fmt.Errorf("list requires -index and -p")
	}
	docs, err := loadCollection(*path)
	if err != nil {
		return err
	}
	ix, err := uncertain.NewCollectionIndex(docs, *tauMin)
	if err != nil {
		return err
	}
	m := uncertain.RelMax
	if *metric == "or" {
		m = uncertain.RelOR
	} else if *metric != "max" {
		return fmt.Errorf("unknown metric %q", *metric)
	}
	res, err := ix.ListRelevance([]byte(*pat), *tau, m)
	if err != nil {
		return err
	}
	for _, r := range res {
		fmt.Printf("doc %d\trel %.6f\n", r.Doc, r.Rel)
	}
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	path := fs.String("index", "", "uncertain string or collection file")
	tauMin := fs.Float64("taumin", 0.1, "construction threshold")
	fs.Parse(args)
	if *path == "" {
		return fmt.Errorf("stats requires -index")
	}
	docs, err := loadCollection(*path)
	if err != nil {
		return err
	}
	if len(docs) == 1 {
		ix, err := uncertain.NewIndex(docs[0], *tauMin)
		if err != nil {
			return err
		}
		tr := ix.Transformed()
		fmt.Printf("positions:          %d\n", docs[0].Len())
		fmt.Printf("factors:            %d\n", len(tr.Spans))
		fmt.Printf("transformed length: %d (%.2fx expansion)\n", tr.Len(), tr.ExpansionFactor())
		fmt.Printf("longest factor:     %d\n", tr.MaxFactorLen)
		printSpace(ix.Space())
		return nil
	}
	ix, err := uncertain.NewCollectionIndex(docs, *tauMin)
	if err != nil {
		return err
	}
	total := 0
	for _, d := range docs {
		total += d.Len()
	}
	fmt.Printf("documents:   %d\n", len(docs))
	fmt.Printf("positions:   %d\n", total)
	printSpace(ix.Space())
	return nil
}

// cmdVerify cross-checks the index against the index-free online matcher on
// sampled patterns — a self-diagnostic for data files and builds.
func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	path := fs.String("index", "", "uncertain string file")
	tauMin := fs.Float64("taumin", 0.1, "construction threshold")
	tau := fs.Float64("tau", 0.2, "verification threshold")
	queries := fs.Int("queries", 200, "number of sampled patterns")
	fs.Parse(args)
	if *path == "" {
		return fmt.Errorf("verify requires -index")
	}
	s, err := loadString(*path)
	if err != nil {
		return err
	}
	ix, err := uncertain.NewIndex(s, *tauMin)
	if err != nil {
		return err
	}
	checked, mismatches := 0, 0
	for _, m := range []int{2, 4, 6, 8, 12} {
		perM := *queries / 5
		if perM == 0 {
			perM = 1
		}
		for q, p := range samplePatterns(s, perM, m) {
			_ = q
			want := uncertain.SearchOnline(s, p, *tau)
			got, err := ix.Search(p, *tau)
			if err != nil {
				return err
			}
			checked++
			if !intsEqual(got, want) {
				mismatches++
				fmt.Printf("MISMATCH %q: index=%v oracle=%v\n", p, got, want)
			}
		}
	}
	fmt.Printf("verified %d queries, %d mismatches\n", checked, mismatches)
	if mismatches > 0 {
		return fmt.Errorf("%d mismatches", mismatches)
	}
	return nil
}

// samplePatterns draws patterns from the string's own probable substrings.
func samplePatterns(s *uncertain.String, count, m int) [][]byte {
	if s.Len() < m {
		return nil
	}
	var out [][]byte
	worldly := s.Worlds(0, 1) // most probable world as the sampling spine
	if len(worldly) == 0 {
		return nil
	}
	w := worldly[0].Str
	step := (len(w) - m) / count
	if step <= 0 {
		step = 1
	}
	for start := 0; start+m <= len(w) && len(out) < count; start += step {
		out = append(out, []byte(w[start:start+m]))
	}
	return out
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func printSpace(sp core.SpaceBreakdown) {
	fmt.Printf("index bytes:        %d\n", sp.Total())
	fmt.Printf("  text+SA:          %d\n", sp.TextAndSA)
	fmt.Printf("  C array:          %d\n", sp.ProbArray)
	fmt.Printf("  Pos/keys:         %d\n", sp.PosAndKeys)
	fmt.Printf("  short RMQ levels: %d\n", sp.ShortLevels)
	fmt.Printf("  long blocks:      %d\n", sp.LongLevels)
}
