// Command rush-collect runs the longitudinal data-collection campaign
// (Section III of the paper): proxy applications submitted two to three
// times a day against ambient cluster contention, with LDMS-style counter
// aggregation and MPI probe benchmarks before every run. It writes the
// assembled Table I datasets as CSV.
//
// Usage:
//
//	rush-collect -days 120 -seed 42 -incident \
//	    -out jobscope.csv -all-out allscope.csv
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"rush/internal/cliflags"
	"rush/internal/core"
	"rush/internal/dataset"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rush-collect: ")

	days := flag.Int("days", 120, "campaign length in simulated days")
	seed := cliflags.Seed(42)
	incident := flag.Bool("incident", true, "include a two-week high-contention incident mid-campaign")
	nodes := flag.Int("nodes", 16, "nodes per control-job run")
	out := flag.String("out", "jobscope.csv", "output CSV for job-node-scoped features")
	allOut := flag.String("all-out", "", "optional output CSV for machine-wide-scoped features")
	flag.Parse()

	res, err := core.Collect(core.CollectConfig{
		Days:     *days,
		Seed:     *seed,
		Incident: *incident,
		Nodes:    *nodes,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := writeCSV(*out, res.JobScope); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %d samples to %s", res.JobScope.Len(), *out)
	if *allOut != "" {
		if err := writeCSV(*allOut, res.AllScope); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %d samples to %s", res.AllScope.Len(), *allOut)
	}

	pos := 0
	for _, l := range res.JobScope.BinaryLabels() {
		pos += l
	}
	fmt.Printf("campaign: %d days, %d samples, %.1f%% runs with variation (z >= %.1f)\n",
		*days, res.JobScope.Len(),
		100*float64(pos)/float64(res.JobScope.Len()), dataset.VariationSigma)
	stats := res.JobScope.Stats()
	apps := make([]string, 0, len(stats))
	for app := range stats {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	for _, app := range apps {
		st := stats[app]
		fmt.Printf("  %-8s n=%-4d mean=%6.1fs std=%5.1fs min=%6.1fs\n",
			app, st.N, st.Mean, st.Std, st.Min)
	}
}

func writeCSV(path string, ds *dataset.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := ds.WriteCSV(f); err != nil {
		return err
	}
	return f.Close()
}
