// Command smstrace is the trace-file toolchain: it captures workload
// traces into the repository's seekable columnar v2 format, converts
// between format versions, slices record ranges out of existing files,
// and inspects files via the O(1) footer index.
//
// Subcommands:
//
//	smstrace gen     -workload oltp-db2 -o trace.smst [-cpus N -seed S -length L]
//	smstrace gen     -workload oltp-db2 -store DIR            # capture into the smsd/engine trace tier
//	smstrace stat    -i trace.smst [-full]
//	smstrace dump    -i trace.smst [-n 20] [-skip N]
//	smstrace slice   -i trace.smst -o slice.smst -skip N [-n COUNT]
//	smstrace convert -i old.smst -o new.smst [-to v2]
//
// Files written with -store land at their content address
// (store.ForTrace), so any engine or smsd daemon over the same store
// replays them instead of regenerating — `gen -store` streams straight
// to disk and is the way to capture traces far larger than RAM.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// errUsage marks command-line errors (exit code 2, like smsexp).
var errUsage = errors.New("usage error")

// run is the testable body of main; it returns the process exit code.
func run(argv []string, stdout, stderr io.Writer) int {
	if len(argv) == 0 {
		usage(stderr)
		return 2
	}
	var err error
	switch cmd := argv[0]; cmd {
	case "gen":
		err = cmdGen(argv[1:], stdout, stderr)
	case "stat":
		err = cmdStat(argv[1:], stdout, stderr)
	case "dump":
		err = cmdDump(argv[1:], stdout, stderr)
	case "slice":
		err = cmdSlice(argv[1:], stdout, stderr)
	case "convert":
		err = cmdConvert(argv[1:], stdout, stderr)
	case "help", "-h", "-help", "--help":
		usage(stderr)
		return 0
	default:
		fmt.Fprintf(stderr, "smstrace: unknown command %q\n", cmd)
		usage(stderr)
		return 2
	}
	switch {
	case err == nil:
		return 0
	case errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		fmt.Fprintln(stderr, "smstrace:", err)
		return 2
	default:
		fmt.Fprintln(stderr, "smstrace:", err)
		return 1
	}
}

func usage(stderr io.Writer) {
	fmt.Fprintln(stderr, `smstrace — trace-file toolchain (format v2: blocked, columnar, seekable)

usage:
  smstrace gen     -workload NAME (-o FILE | -store DIR) [-cpus N] [-seed S] [-length L] [-format v1|v2] [-block N]
  smstrace stat    -i FILE [-full]
  smstrace dump    -i FILE [-n COUNT] [-skip N]
  smstrace slice   -i FILE -o FILE -skip N [-n COUNT] [-block N]
  smstrace convert -i FILE -o FILE [-to v1|v2] [-block N]`)
}

// parseFlags runs fs over args, folding parse failures into errUsage.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return flag.ErrHelp
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	return nil
}

// newFlagSet builds a ContinueOnError flag set printing to stderr.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parseFormat maps -format / -to values to trace format versions.
func parseFormat(s string) (int, error) {
	switch s {
	case "v1", "1":
		return 1, nil
	case "v2", "2":
		return trace.Version2, nil
	default:
		return 0, fmt.Errorf("%w: unknown format %q (want v1 or v2)", errUsage, s)
	}
}

// recordWriter unifies the v1 and v2 writers for the copying commands.
type recordWriter interface {
	Write(trace.Record) error
	Count() uint64
}

// fileWriter opens path and returns a writer in the requested format
// plus a finish function that flushes/closes everything.
func fileWriter(path string, version int, hdr trace.Header) (recordWriter, func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	if version == 1 {
		w, err := trace.NewWriter(f)
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		return w, func() error {
			if err := w.Flush(); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}, nil
	}
	w, err := trace.NewV2Writer(f, hdr)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return w, func() error {
		if err := w.Close(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

// copyRecords streams up to n records (n == 0: all) from src to w. It
// pulls chunks of workload.ParallelFillRecords, so a generator source
// fills each one on every available core.
func copyRecords(src trace.Source, w recordWriter, n uint64) (uint64, error) {
	bs := trace.Batched(src)
	buf := make([]trace.Record, workload.ParallelFillRecords)
	var copied uint64
	for n == 0 || copied < n {
		want := uint64(len(buf))
		if n != 0 && n-copied < want {
			want = n - copied
		}
		k := bs.NextBatch(buf[:want])
		if k == 0 {
			break
		}
		for i := 0; i < k; i++ {
			if err := w.Write(buf[i]); err != nil {
				return copied, err
			}
		}
		copied += uint64(k)
	}
	return copied, nil
}

func cmdGen(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("gen", stderr)
	name := fs.String("workload", "oltp-db2", "workload name")
	out := fs.String("o", "", "output file")
	storeDir := fs.String("store", "", "capture into the trace tier of this result store instead of a file")
	cpus := fs.Int("cpus", 4, "CPUs")
	seed := fs.Int64("seed", 1, "seed")
	length := fs.Uint64("length", 1_000_000, "accesses")
	format := fs.String("format", "v2", "output format (v1 or v2; -store requires v2)")
	block := fs.Int("block", 0, "records per v2 block (0 = default)")
	traceOut := fs.String("trace-out", "", "write capture-phase spans as Chrome trace-event JSON")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	version, err := parseFormat(*format)
	if err != nil {
		return err
	}
	if (*out == "") == (*storeDir == "") {
		return fmt.Errorf("%w: exactly one of -o or -store is required", errUsage)
	}
	if *storeDir != "" && version != trace.Version2 {
		return fmt.Errorf("%w: -store captures are always v2", errUsage)
	}
	w, err := workload.ByName(*name)
	if err != nil {
		return err
	}
	cfg := workload.Config{CPUs: *cpus, Seed: *seed, Length: *length}
	key := store.ForTrace(*name, cfg)
	hdr := trace.Header{
		CPUs:         cfg.Canonical().CPUs,
		Geometry:     mem.DefaultGeometry(),
		Workload:     *name,
		WorkloadHash: key,
		BlockRecords: *block,
	}

	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
	}
	// writeSpans is deferred work the happy paths share; a nil tracer
	// makes it a no-op.
	writeSpans := func() error {
		if tracer == nil {
			return nil
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := tracer.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}

	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			return err
		}
		sink, err := st.BeginTrace(key, hdr)
		if err != nil {
			return err
		}
		src := w.Make(cfg)
		sp := tracer.Start("trace-generate", "smstrace", *name)
		if _, err := copyRecords(src, sink.W, 0); err != nil {
			sink.Abort()
			return err
		}
		sp.End()
		if err := sourceErr(src); err != nil {
			sink.Abort()
			return err
		}
		sp = tracer.Start("trace-commit", "smstrace", *name)
		if err := sink.Commit(); err != nil {
			return err
		}
		sp.End()
		fmt.Fprintf(stdout, "captured %d records into the trace tier at %s\nkey %s\n", sink.W.Count(), *storeDir, key)
		return writeSpans()
	}

	tw, finish, err := fileWriter(*out, version, hdr)
	if err != nil {
		return err
	}
	src := w.Make(cfg)
	sp := tracer.Start("trace-generate", "smstrace", *name)
	if _, err := copyRecords(src, tw, 0); err != nil {
		finish()
		return err
	}
	if err := sourceErr(src); err != nil {
		finish()
		return err
	}
	if err := finish(); err != nil {
		return err
	}
	sp.End()
	fmt.Fprintf(stdout, "wrote %d records to %s (%s)\n", tw.Count(), *out, *format)
	return writeSpans()
}

func cmdStat(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("stat", stderr)
	in := fs.String("i", "trace.smst", "input file")
	full := fs.Bool("full", false, "decode every record for content statistics (v1 always scans)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	info, err := trace.Stat(*in)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "file            %s\n", info.Path)
	fmt.Fprintf(stdout, "format          v%d\n", info.Version)
	fmt.Fprintf(stdout, "bytes           %d\n", info.Bytes)
	if info.Version == trace.Version2 {
		// All of this comes from the header and footer index: O(1),
		// no record decoding, however large the file.
		fmt.Fprintf(stdout, "records         %d (%.1f B/record)\n", info.Records,
			float64(info.Bytes)/float64(max64(info.Records, 1)))
		fmt.Fprintf(stdout, "blocks          %d\n", info.Blocks)
		fmt.Fprintf(stdout, "cpus            %d\n", info.CPUs)
		if info.Geometry != (mem.Geometry{}) {
			fmt.Fprintf(stdout, "geometry        %v\n", info.Geometry)
		}
		if info.Workload != "" {
			fmt.Fprintf(stdout, "workload        %s\n", info.Workload)
		}
		if info.WorkloadHash != "" {
			fmt.Fprintf(stdout, "workload hash   %s\n", info.WorkloadHash)
		}
	}
	if !*full && info.Version == trace.Version2 {
		return nil
	}

	stream, closer, err := trace.OpenStream(*in)
	if err != nil {
		return err
	}
	defer closer.Close()
	geo := mem.DefaultGeometry()
	if info.Geometry != (mem.Geometry{}) {
		geo = info.Geometry
	}
	src := trace.Batched(stream)
	var total, writes uint64
	cpus := map[uint8]uint64{}
	pcs := map[uint64]uint64{}
	regions := map[uint64]bool{}
	var firstSeq, lastSeq uint64
	buf := make([]trace.Record, 4096)
	for {
		n := src.NextBatch(buf)
		if n == 0 {
			break
		}
		for _, rec := range buf[:n] {
			if total == 0 {
				firstSeq = rec.Seq
			}
			lastSeq = rec.Seq
			total++
			if rec.IsWrite() {
				writes++
			}
			cpus[rec.CPU]++
			pcs[rec.PC]++
			regions[geo.RegionTag(rec.Addr)] = true
		}
	}
	if err := sourceErr(src); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "records         %d (%d writes, %.1f%%)\n", total, writes, 100*float64(writes)/float64(max64(total, 1)))
	fmt.Fprintf(stdout, "instructions    %d\n", lastSeq-firstSeq)
	fmt.Fprintf(stdout, "cpus seen       %d\n", len(cpus))
	fmt.Fprintf(stdout, "distinct PCs    %d\n", len(pcs))
	fmt.Fprintf(stdout, "distinct %dB regions %d\n", geo.RegionSize(), len(regions))
	return nil
}

// seeker is the optional fast-skip capability of v2 sources.
type seeker interface{ Seek(rec uint64) error }

func cmdDump(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("dump", stderr)
	in := fs.String("i", "trace.smst", "input file")
	n := fs.Int("n", 20, "records to print (0 = all)")
	skip := fs.Uint64("skip", 0, "records to skip first (index-backed seek on v2 files)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	src, closer, err := trace.OpenStream(*in)
	if err != nil {
		return err
	}
	defer closer.Close()
	if *skip > 0 {
		if s, ok := src.(seeker); ok {
			// v2: one binary search + one block decode, however deep.
			if err := s.Seek(*skip); err != nil {
				return err
			}
		} else {
			trace.Skip(src, *skip)
		}
	}
	count := 0
	for *n == 0 || count < *n {
		rec, ok := src.Next()
		if !ok {
			break
		}
		fmt.Fprintln(stdout, rec)
		count++
	}
	return sourceErr(src)
}

func cmdSlice(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("slice", stderr)
	in := fs.String("i", "", "input file")
	out := fs.String("o", "", "output file (always v2)")
	skip := fs.Uint64("skip", 0, "first record of the slice")
	n := fs.Uint64("n", 0, "records in the slice (0 = through end of trace)")
	block := fs.Int("block", 0, "records per v2 block (0 = default)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("%w: slice needs -i and -o", errUsage)
	}
	info, err := trace.Stat(*in)
	if err != nil {
		return err
	}
	src, closer, err := trace.OpenStream(*in)
	if err != nil {
		return err
	}
	defer closer.Close()
	if *skip > 0 {
		if s, ok := src.(seeker); ok {
			if err := s.Seek(*skip); err != nil {
				return err
			}
		} else {
			trace.Skip(src, *skip)
		}
	}
	hdr := headerFromInfo(info)
	// A slice is not the capture it came from: carrying the source's
	// canonical hash would let a fragment impersonate the full trace
	// (e.g. in the store's content-addressed tier).
	hdr.WorkloadHash = ""
	hdr.BlockRecords = *block
	tw, finish, err := fileWriter(*out, trace.Version2, hdr)
	if err != nil {
		return err
	}
	copied, err := copyRecords(src, tw, *n)
	if err != nil {
		finish()
		return err
	}
	if err := sourceErr(src); err != nil {
		finish()
		return err
	}
	if err := finish(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "sliced records [%d,%d) of %s into %s\n", *skip, *skip+copied, *in, *out)
	return nil
}

func cmdConvert(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("convert", stderr)
	in := fs.String("i", "", "input file (v1 or v2)")
	out := fs.String("o", "", "output file")
	to := fs.String("to", "v2", "output format (v1 or v2)")
	block := fs.Int("block", 0, "records per v2 block (0 = default)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	version, err := parseFormat(*to)
	if err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("%w: convert needs -i and -o", errUsage)
	}
	info, err := trace.Stat(*in)
	if err != nil {
		return err
	}
	src, closer, err := trace.OpenStream(*in)
	if err != nil {
		return err
	}
	defer closer.Close()
	hdr := headerFromInfo(info)
	hdr.BlockRecords = *block
	tw, finish, err := fileWriter(*out, version, hdr)
	if err != nil {
		return err
	}
	if _, err := copyRecords(src, tw, 0); err != nil {
		finish()
		return err
	}
	if err := sourceErr(src); err != nil {
		finish()
		return err
	}
	if err := finish(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "converted %d records: %s (v%d) -> %s (%s)\n",
		tw.Count(), *in, info.Version, *out, *to)
	return nil
}

// headerFromInfo carries a source file's self-description into a new file.
func headerFromInfo(info trace.FileInfo) trace.Header {
	return trace.Header{
		CPUs:         info.CPUs,
		Geometry:     info.Geometry,
		Workload:     info.Workload,
		WorkloadHash: info.WorkloadHash,
	}
}

// sourceErr surfaces a source's latched decode error, if it has one.
func sourceErr(src trace.Source) error {
	if e, ok := src.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
