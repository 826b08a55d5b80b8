// Command waspplan is an offline planning tool: it shows the joint
// logical/physical plan space for one of the evaluation queries on the
// emulated testbed — the candidate combine orders, their estimated
// delay-volume and WAN consumption, and the task placement of the chosen
// plan (the Query Planner + Scheduler view of §2.1/§4.3).
//
// Usage:
//
//	waspplan -query topk -seed 1 -top 5
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"github.com/wasp-stream/wasp/internal/experiment"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/queries"
	"github.com/wasp-stream/wasp/internal/topology"
)

func main() {
	os.Exit(runMain(os.Args[1:], os.Stderr))
}

// runMain parses and checks the flags, then plans. A value that is not a
// plan request exits 2, as flag does for a malformed one; a planning
// failure exits 1.
func runMain(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("waspplan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		query = fs.String("query", "topk", "query: ysb | topk | eoi")
		seed  = fs.Int64("seed", 1, "topology seed")
		top   = fs.Int("top", 5, "how many candidate plans to show")
		max   = fs.Int("max-variants", 40, "combine-order enumeration cap")
		rate  = fs.Float64("rate", 10000, "events/s per source")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := checkFlags(*top, *max, *rate); err != nil {
		fmt.Fprintln(stderr, "waspplan:", err)
		return 2
	}
	if err := run(*query, *seed, *top, *max, *rate); err != nil {
		fmt.Fprintln(stderr, "waspplan:", err)
		return 1
	}
	return 0
}

// checkFlags rejects a value that asks for no plan: a rate that is not a
// finite positive number of events/s, or fewer than one variant to
// enumerate or candidate to show.
func checkFlags(top, maxVariants int, rate float64) error {
	if !(rate > 0) || math.IsInf(rate, 1) {
		return fmt.Errorf("-rate: %v must be a finite positive number of events/s", rate)
	}
	if maxVariants < 1 {
		return fmt.Errorf("-max-variants: %d must be at least 1", maxVariants)
	}
	if top < 1 {
		return fmt.Errorf("-top: %d must be at least 1", top)
	}
	return nil
}

func run(query string, seed int64, top, maxVariants int, rate float64) error {
	builder, err := experiment.QueryByName(query)
	if err != nil {
		return err
	}
	topo := topology.Generate(topology.DefaultGenConfig(seed))
	q := builder(queries.Config{
		SourceSites:   topo.SitesOfKind(topology.Edge),
		SinkSite:      topo.SitesOfKind(topology.DataCenter)[0],
		RatePerSource: rate,
	})

	fmt.Printf("waspplan: query %s on the %d-site testbed (seed %d)\n", q.Name, topo.N(), seed)
	fmt.Printf("  sources: %d (at the edge sites)   stateful: %v   state: %s\n",
		len(q.SourceOps), q.Stateful, q.StateDesc)

	best, all, err := physical.RankQuery(q.Graph, q.Spec, topo, physical.PlannerConfig{
		ScheduleConfig: physical.ScheduleConfig{Alpha: 0.8, DefaultParallelism: 1},
		MaxVariants:    maxVariants,
	})
	if err != nil {
		return err
	}

	fmt.Printf("\n%d schedulable plan candidates (of %d enumerated combine orders):\n",
		len(all), maxVariants)
	header := []string{"#", "combine order", "delay-volume", "WAN MB/s", "cost"}
	var rows [][]string
	for i, c := range all {
		if i >= top {
			break
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", i+1),
			c.Tree.String(),
			experiment.Fmt(c.DelayVolume),
			experiment.Fmt(c.WANBytesPerSec / 1e6),
			experiment.Fmt(c.Cost),
		})
	}
	fmt.Print(experiment.Table(header, rows))

	fmt.Printf("\nChosen plan %v — task placement:\n", best.Variant.Tree)
	g := best.Plan.Graph
	var prows [][]string
	for id := range g.Len() {
		st := best.Plan.Stages[id]
		sites := ""
		for i, s := range st.Sites {
			if i > 0 {
				sites += " "
			}
			site := topo.Site(s)
			sites += fmt.Sprintf("%s(%d)", site.Name, s)
		}
		prows = append(prows, []string{
			fmt.Sprintf("op%d", id), st.Op.Name, st.Op.Kind.String(),
			fmt.Sprintf("%d", st.Parallelism()), sites,
		})
	}
	fmt.Print(experiment.Table([]string{"id", "operator", "kind", "p", "sites"}, prows))

	delayVol, wan, err := physical.EstimateCost(best.Plan, topo, 1)
	if err != nil {
		return err
	}
	fmt.Printf("\nEstimated cross-site traffic: %.2f MB/s; delay-volume %.3f; latency budget per hop <= %v\n",
		wan/1e6, delayVol, 300*time.Millisecond)
	return nil
}
