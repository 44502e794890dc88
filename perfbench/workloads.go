package main

import "sort"

// workloads maps --workload names to their runs. Why each exists is in
// README.md.
var workloads = map[string]func(runConfig) (*result, error){
	"serve-wire":  serveWire,
	"serve-rows":  serveRows,
	"churn":       churn,
	"eval-stream": evalStream,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for k := range workloads {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
