// Command rush-serve runs the gate-prediction daemon: it loads a trained
// predictor (from rush-train) and serves gate decisions, telemetry
// ingestion, and model hot-swaps over the versioned length-prefixed JSON
// protocol (see internal/serve's package documentation for the wire
// format).
//
// Usage:
//
//	rush-serve -predictor predictor.json -listen :7611
//	rush-serve -predictor predictor.json -listen unix:/tmp/rush.sock -max-inflight 64
//
// Each connection's decisions, model inference included, run on that
// connection's goroutine. The daemon degrades, never stalls: an injected
// or observed predictor outage answers fail-open ALLOW decisions with a
// typed reason, and past -max-inflight decisions in flight it answers
// BUSY instead of queueing without limit. SIGINT/SIGTERM close the
// listener, let in-flight decisions finish, and print the final counter
// values.
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"rush/internal/cliflags"
	"rush/internal/core"
	"rush/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rush-serve: ")

	predictorPath := flag.String("predictor", "predictor.json", "trained predictor JSON (from rush-train)")
	listen := cliflags.Listen(":7611")
	maxInflight := cliflags.MaxInflight(256)
	maxStaleness := flag.Float64("max-staleness", 90, "oldest acceptable telemetry age in seconds (negative disables the check)")
	maxMissing := flag.Float64("max-missing", 0.5, "largest tolerable missing-feature fraction (negative disables the check)")
	flag.Parse()

	blob, err := os.ReadFile(*predictorPath)
	if err != nil {
		log.Fatal(err)
	}
	pred, err := core.LoadPredictor(blob)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("loaded %s predictor (cv F1=%.3f) from %s", pred.ModelName, pred.CVF1, *predictorPath)

	srv, err := serve.NewServer(serve.Config{
		Model:        pred.Model,
		MaxStaleness: *maxStaleness,
		MaxMissing:   *maxMissing,
		MaxInflight:  *maxInflight,
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := serve.Listen(*listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving protocol v%d on %s", serve.ProtoVersion, *listen)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Printf("shutting down")
		srv.Close()
	}()

	if err := srv.Serve(ln); err != nil {
		log.Fatal(err)
	}
	srv.Close()

	stats := srv.Stats()
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		log.Printf("%s %d", name, stats[name])
	}
}
