// Command topogen emits the evaluation deployments as text for inspection
// and external plotting: node positions, the computed link gains, and the
// expected PRR adjacency at a chosen transmit power.
//
//	topogen -topology indoor -seed 1 -links
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"teleadjust/internal/experiment"
	"teleadjust/internal/radio"
	"teleadjust/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "topogen:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("topogen", flag.ContinueOnError)
	var (
		name    = fs.String("topology", "indoor", "topology: "+strings.Join(experiment.ScenarioNames(), ", "))
		seed    = fs.Uint64("seed", 1, "placement seed")
		links   = fs.Bool("links", false, "also print the PRR adjacency (links with PRR ≥ 0.1)")
		minPRR  = fs.Float64("min-prr", 0.1, "PRR threshold for -links")
		degrees = fs.Bool("degrees", false, "print per-node degree summary")
		hops    = fs.Bool("hops", false, "print BFS hop distribution from the sink over good links")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	build, err := experiment.ScenarioNamed(*name)
	if err != nil {
		return err
	}
	scn := build(*seed)

	dep := scn.Dep
	fmt.Fprintf(w, "# topology %s seed %d: %d nodes, sink %d\n", dep.Name, *seed, dep.Len(), dep.Sink)
	minX, minY, maxX, maxY := dep.Bounds()
	fmt.Fprintf(w, "# bounds: (%.1f, %.1f) .. (%.1f, %.1f) m\n", minX, minY, maxX, maxY)
	fmt.Fprintln(w, "# id\tx\ty")
	for i, p := range dep.Positions {
		fmt.Fprintf(w, "%d\t%.2f\t%.2f\n", i, p.X, p.Y)
	}
	if !*links && !*degrees && !*hops {
		return nil
	}

	eng := sim.NewEngine()
	med, err := radio.NewMedium(eng, dep, nil, scn.Radio, *seed)
	if err != nil {
		return err
	}
	power := scn.Mac.TxPowerDBm
	if *links {
		fmt.Fprintln(w, "# links: from\tto\tprr")
		for i := 0; i < dep.Len(); i++ {
			for j := 0; j < dep.Len(); j++ {
				if i == j {
					continue
				}
				prr := med.ExpectedPRR(radio.NodeID(i), radio.NodeID(j), power, 32)
				if prr >= *minPRR {
					fmt.Fprintf(w, "%d\t%d\t%.3f\n", i, j, prr)
				}
			}
		}
	}
	if *hops {
		printHopDistribution(w, med, dep.Sink, dep.Len(), power)
	}
	if *degrees {
		fmt.Fprintln(w, "# degrees: id\tout-degree")
		for i := 0; i < dep.Len(); i++ {
			deg := 0
			for j := 0; j < dep.Len(); j++ {
				if i == j {
					continue
				}
				if med.ExpectedPRR(radio.NodeID(i), radio.NodeID(j), power, 32) >= *minPRR {
					deg++
				}
			}
			fmt.Fprintf(w, "%d\t%d\n", i, deg)
		}
	}
	return nil
}

// printHopDistribution runs BFS from the sink over links with PRR ≥ 0.5
// in both directions — a quick static estimate of the network diameter
// used to calibrate the scenarios.
func printHopDistribution(w io.Writer, med *radio.Medium, sink, n int, power float64) {
	const goodPRR = 0.5
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[sink] = 0
	queue := []int{sink}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for j := 0; j < n; j++ {
			if dist[j] >= 0 || j == cur {
				continue
			}
			up := med.ExpectedPRR(radio.NodeID(j), radio.NodeID(cur), power, 32)
			down := med.ExpectedPRR(radio.NodeID(cur), radio.NodeID(j), power, 32)
			if up >= goodPRR && down >= goodPRR {
				dist[j] = dist[cur] + 1
				queue = append(queue, j)
			}
		}
	}
	hist := map[int]int{}
	unreachable := 0
	maxHop := 0
	for i, d := range dist {
		if i == sink {
			continue
		}
		if d < 0 {
			unreachable++
			continue
		}
		hist[d]++
		if d > maxHop {
			maxHop = d
		}
	}
	fmt.Fprintln(w, "# BFS hop distribution (bidirectional PRR ≥ 0.5):")
	for h := 1; h <= maxHop; h++ {
		fmt.Fprintf(w, "# hop %d: %d nodes\n", h, hist[h])
	}
	if unreachable > 0 {
		fmt.Fprintf(w, "# unreachable: %d nodes\n", unreachable)
	}
}
