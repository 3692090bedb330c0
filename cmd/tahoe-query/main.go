// Command tahoe-query runs streaming queries over stored simulation
// traces: the chunked columnar store files written by
// `tahoe-sim -trace-store` (or any TraceStoreWriter). A store is
// scanned one chunk at a time with index-driven chunk skipping, so a
// hundred-gigabyte trace queries in bounded memory.
//
// One operation per invocation, over one trace file:
//
//	tahoe-query run.tobc                         # summary (default: -info)
//	tahoe-query -count -filter type=drop run.tobc
//	tahoe-query -events -limit 20 -from 30s -to 31s run.tobc
//	tahoe-query -window 1s -by-loc -filter type=transmit run.tobc
//	tahoe-query -quantiles 0.5,0.9,0.99 -filter type=drop run.tobc
//	tahoe-query -check run.tobc                  # offline invariant pass
//
// The -from/-to/-filter/-loc selectors compose with -count, -events,
// -window and -quantiles. -info and -check describe and check the whole
// store: given a selector they refuse it and exit 2. -count prints a
// bare number (script-friendly); -check exits 1 when an invariant is
// violated, naming the offending event. -info's summary includes the
// payload bytes of each column and how the chunks encode it.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"tahoedyn"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		info      = flag.Bool("info", false, "print a store summary: format version, events, chunks, time span, payload bytes in all and per column with each column's encodings, locations (the default operation)")
		count     = flag.Bool("count", false, "print the number of matching events (answered from the store index where it can)")
		events    = flag.Bool("events", false, "print matching events, one per line")
		limit     = flag.Int("limit", 0, "with -events: stop after this many events (0 = all)")
		window    = flag.Duration("window", 0, "aggregate matching events into windows of this width (per-window count, bytes, throughput, val stats)")
		byLoc     = flag.Bool("by-loc", false, "with -window: one series per location instead of one overall")
		quantiles = flag.String("quantiles", "", "comma-separated probabilities, e.g. 0.5,0.9,0.99: print quantiles of the events' val field")
		check     = flag.Bool("check", false, "run the offline invariant pass (conservation, causality, monotonic time, cwnd bounds)")
		noConsv   = flag.Bool("no-conservation", false, "with -check: skip conservation/causality (required for filtered or windowed captures)")
		from      = flag.Duration("from", 0, "select events at or after this simulated time")
		to        = flag.Duration("to", 0, "select events before this simulated time (0 = end)")
		filter    = flag.String("filter", "", `event filter, e.g. "conn=2,type=drop|timeout"`)
		loc       = flag.String("loc", "", `select a single location by name, e.g. "sw0->sw1:data"`)
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "tahoe-query: need exactly one trace store (see -h)")
		return 2
	}
	path := flag.Arg(0)

	flt, err := tahoedyn.ParseTraceFilter(*filter)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tahoe-query:", err)
		return 2
	}
	q := tahoedyn.TraceQuery{From: *from, To: *to, Filter: flt, Loc: *loc}

	nOps := 0
	for _, on := range []bool{*info, *count, *events, *window != 0, *quantiles != "", *check} {
		if on {
			nOps++
		}
	}
	if nOps > 1 {
		fmt.Fprintln(os.Stderr, "tahoe-query: pick one operation (-info, -count, -events, -window, -quantiles, or -check)")
		return 2
	}
	// -check and -info (the default) read the whole store.
	op := ""
	switch {
	case *check:
		op = "-check"
	case *info || nOps == 0:
		op = "-info"
	}
	if op != "" {
		var selector string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "from", "to", "filter", "loc":
				if selector == "" {
					selector = f.Name
				}
			}
		})
		if selector != "" {
			fmt.Fprintf(os.Stderr, "tahoe-query: -%s does not apply to %s, which reads the whole store; drop it, or select with -count, -events, -window or -quantiles\n", selector, op)
			return 2
		}
	}

	sc, err := tahoedyn.OpenTraceStore(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tahoe-query:", err)
		return 1
	}
	defer sc.Close()

	switch {
	case *count:
		n, err := tahoedyn.CountTraceEvents(sc, q)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tahoe-query:", err)
			return 1
		}
		fmt.Println(n)
	case *events:
		if err := printEvents(sc, q, *limit); err != nil {
			fmt.Fprintln(os.Stderr, "tahoe-query:", err)
			return 1
		}
	case *window != 0:
		if err := printWindows(sc, q, *window, *byLoc); err != nil {
			fmt.Fprintln(os.Stderr, "tahoe-query:", err)
			return 1
		}
	case *quantiles != "":
		if err := printQuantiles(sc, q, *quantiles); err != nil {
			fmt.Fprintln(os.Stderr, "tahoe-query:", err)
			return 1
		}
	case *check:
		o := tahoedyn.InvariantOptions{NoConservation: *noConsv}
		n, vio, err := tahoedyn.CheckTraceInvariants(sc, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tahoe-query:", err)
			return 1
		}
		if vio != nil {
			fmt.Fprintln(os.Stderr, "tahoe-query:", vio)
			return 1
		}
		fmt.Printf("invariants: clean (%d events checked)\n", n)
	default:
		if err := printInfo(sc, path); err != nil {
			fmt.Fprintln(os.Stderr, "tahoe-query:", err)
			return 1
		}
	}
	return 0
}

// printInfo prints the store summary: the header fields, the span, the
// payload bytes, then per column its bytes and how many chunks encode
// it each way — the event-count varints of the chunks first, so that
// the column lines add up to the payload bytes.
func printInfo(store *tahoedyn.TraceStore, path string) error {
	chunks := store.Chunks()
	fmt.Printf("%s: chunked trace store (format v%d), %d events in %d chunks of ≤ %d events\n",
		path, store.Version(), store.TotalEvents(), len(chunks), store.ChunkEvents())
	if len(chunks) > 0 {
		// Offline ingest may write chunks in any time order.
		var bytes int64
		minT, maxT := chunks[0].MinT, chunks[0].MaxT
		for i := range chunks {
			bytes += chunks[i].Size
			minT, maxT = min(minT, chunks[i].MinT), max(maxT, chunks[i].MaxT)
		}
		perEvent := func(b int64) float64 { return float64(b) / float64(store.TotalEvents()) }
		fmt.Printf("  span %v .. %v\n", minT, maxT)
		fmt.Printf("  %d payload bytes (%.1f B/event)\n", bytes, perEvent(bytes))
		layout, err := store.Layout()
		if err != nil {
			return err
		}
		fmt.Printf("  column %-5s %10d B %6.2f B/event  varint %d\n", "count", layout.CountBytes, perEvent(layout.CountBytes), len(chunks))
		for _, col := range layout.Columns {
			var mix []string
			for enc, n := range col.Chunks {
				if n > 0 {
					mix = append(mix, fmt.Sprintf("%v %d", tahoedyn.TraceEncoding(enc), n))
				}
			}
			fmt.Printf("  column %-5s %10d B %6.2f B/event  %s\n", col.Name, col.Bytes, perEvent(col.Bytes), strings.Join(mix, ", "))
		}
	}
	fmt.Printf("  %d locations\n", len(store.Locs()))
	return nil
}

func printEvents(sc *tahoedyn.TraceStore, q tahoedyn.TraceQuery, limit int) error {
	locs := sc.Locs()
	n := 0
	return sc.Scan(q, func(ev *tahoedyn.TraceEvent) error {
		locName := fmt.Sprintf("loc%d", ev.Loc)
		if int(ev.Loc) < len(locs) {
			locName = locs[ev.Loc]
		}
		fmt.Printf("%-16v %-8v %-16s conn=%-3d kind=%v seq=%-7d size=%-5d id=%-8d val=%g\n",
			ev.T, ev.Type, locName, ev.Conn, ev.Kind, ev.Seq, ev.Size, ev.ID, ev.Val)
		n++
		if limit > 0 && n >= limit {
			return tahoedyn.ErrStopScan
		}
		return nil
	})
}

func printWindows(sc *tahoedyn.TraceStore, q tahoedyn.TraceQuery, width time.Duration, byLoc bool) error {
	groups, err := tahoedyn.WindowedTrace(sc, q, tahoedyn.WindowOptions{Width: width, ByLoc: byLoc})
	if err != nil {
		return err
	}
	names := make([]string, 0, len(groups))
	for name := range groups {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-16s %-14s %-9s %-11s %-12s %-9s %-7s %-7s\n",
		"loc", "window", "count", "bytes", "bits/s", "val-mean", "min", "max")
	for _, name := range names {
		label := name
		if label == "" {
			label = "(all)"
		}
		for _, w := range groups[name] {
			if w.Count == 0 {
				continue
			}
			bps := float64(w.Bytes*8) / width.Seconds()
			fmt.Printf("%-16s %-14v %-9d %-11d %-12.0f %-9.2f %-7g %-7g\n",
				label, w.Start, w.Count, w.Bytes, bps, w.Mean(), w.Min, w.Max)
		}
	}
	return nil
}

func printQuantiles(sc *tahoedyn.TraceStore, q tahoedyn.TraceQuery, spec string) error {
	var probs []float64
	for _, part := range strings.Split(spec, ",") {
		p, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return fmt.Errorf("bad probability %q", part)
		}
		probs = append(probs, p)
	}
	vals, n, err := tahoedyn.TraceQuantiles(sc, q, probs)
	if err != nil {
		return err
	}
	for i, p := range probs {
		fmt.Printf("p%g = %g\n", p*100, vals[i])
	}
	fmt.Printf("samples = %d\n", n)
	return nil
}
