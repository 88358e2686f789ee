// Command geotrace profiles a workload and inspects its communication
// trace: the CG/AG pattern summary, an ASCII heatmap of the matrix
// (the paper's Figure 3, in the terminal), per-process loop-compression
// statistics, and optionally one process's compressed stream.
//
// Usage:
//
//	geotrace -app LU -n 64
//	geotrace -app K-means -n 32 -proc 5     # show process 5's loop structure
package main

import (
	"flag"
	"fmt"
	"os"

	"geoprocmap/internal/apps"
	"geoprocmap/internal/buildinfo"
	"geoprocmap/internal/experiments"
	"geoprocmap/internal/netmodel"
	"geoprocmap/internal/trace"
)

func main() {
	var (
		appName = flag.String("app", "LU", "workload: LU, BT, SP, K-means, DNN")
		n       = flag.Int("n", 64, "number of processes")
		iters   = flag.Int("iters", 0, "iterations to trace (0 = workload default)")
		proc    = flag.Int("proc", -1, "print this process's compressed event stream")
		bins    = flag.Int("bins", 16, "heatmap resolution")

		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(buildinfo.Version("geotrace"))
		return
	}

	app, err := apps.ByName(*appName)
	if err != nil {
		fatal(err)
	}
	it := *iters
	if it == 0 {
		it = app.DefaultIters()
	}
	rec, err := apps.Trace(app, *n, it)
	if err != nil {
		fatal(err)
	}
	g := rec.Graph()

	fmt.Printf("workload:        %s × %d iterations on %d processes\n", app.Name(), it, *n)
	fmt.Printf("messages:        %d (%.2f MB total)\n", rec.Len(), float64(rec.TotalBytes())/netmodel.MB)
	fmt.Printf("pattern edges:   %d directed pairs, max degree %d\n", g.EdgeCount(), g.MaxDegree())
	fmt.Printf("mean message:    %.1f KB\n", g.TotalVolume()/g.TotalMsgs()/1024)

	compressed := trace.CompressAll(rec)
	fmt.Printf("loop compression: mean ratio %.1f× (CYPRESS-style structure recovery)\n\n", trace.MeanRatio(compressed))

	fmt.Println("communication matrix heatmap:")
	fmt.Print(experiments.HeatmapASCII(g, *bins))

	if *proc >= 0 {
		if *proc >= *n {
			fatal(fmt.Errorf("process %d out of range [0,%d)", *proc, *n))
		}
		c := compressed[*proc]
		fmt.Printf("\nprocess %d: %d events → %d items (%.1f×)\n", *proc, c.RawLen, c.Size(), c.Ratio())
		fmt.Println(c.String())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "geotrace:", err)
	os.Exit(1)
}
