package hadfl_test

import (
	"fmt"

	"hadfl"
)

// The quickest possible HADFL run: four simulated devices with computing
// power 4:2:2:1, a short epoch budget, fixed seed.
func ExampleRun() {
	res, err := hadfl.Run(hadfl.Options{
		Powers:       []float64{4, 2, 2, 1},
		TargetEpochs: 8,
		Seed:         1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("scheme=%s rounds=%d server-bytes=%d\n",
		res.Scheme, res.Rounds, res.ServerBytes)
	// Output: scheme=hadfl rounds=4 server-bytes=0
}

// Comparing every scheme on one cluster.
func ExampleCompare() {
	results, err := hadfl.Compare(hadfl.Options{
		Powers:       []float64{4, 2, 2, 1},
		TargetEpochs: 8,
		Seed:         1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(len(results), "schemes compared")
	// Output: 5 schemes compared
}
