// Heterogeneous-cluster comparison: HADFL versus every other
// scheme (Decentralized-FedAvg, PyTorch-style distributed
// training, staleness-weighted async-FL) on the paper's two
// heterogeneity distributions — a miniature of the paper's Table I.
//
// Run with:
//
//	go run ./examples/heterogeneous
package main

import (
	"fmt"
	"log"
	"os"

	"hadfl"
	"hadfl/internal/metrics"
)

func main() {
	table := &metrics.Table{Header: []string{
		"het", "scheme", "max-acc", "time-to-max", "hadfl-speedup",
	}}
	for _, powers := range [][]float64{{3, 3, 1, 1}, {4, 2, 2, 1}} {
		opts := hadfl.Options{Powers: powers, TargetEpochs: 30, Seed: 1}
		results, err := hadfl.Compare(opts)
		if err != nil {
			log.Fatal(err)
		}
		h := results[hadfl.SchemeHADFL]
		label := fmt.Sprintf("%v", powers)
		// Every scheme, in hadfl.Schemes' canonical order.
		for _, scheme := range hadfl.Schemes() {
			r := results[scheme]
			speedup := r.Time / h.Time
			table.AddRow(label, scheme,
				fmt.Sprintf("%.1f%%", 100*r.Accuracy),
				fmt.Sprintf("%.1f s", r.Time),
				fmt.Sprintf("%.2fx", speedup))
		}
	}
	fmt.Println("Time to maximum test accuracy (virtual seconds, lower is better)")
	fmt.Println()
	if err := table.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nhadfl-speedup = scheme's time ÷ HADFL's time; >1 means HADFL is faster.")
}
