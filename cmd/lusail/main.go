// Command lusail stands up and queries a Lusail federation. Each job is a
// verb:
//
//	lusail datagen  -benchmark lubm -universities 2 -out ./data
//	lusail load     -out u1.lds -verify ./data/university1.nt
//	lusail endpoint -addr :8081 -name u0 -data ./data/university0.nt
//	lusail endpoint -addr :8082 -name u1 -store disk:u1.lds
//	lusail catalog  build -endpoint u0=http://host1:8081/sparql \
//	                -endpoint u1=http://host2:8082/sparql -catalog catalog.json
//	lusail query    -endpoint u0=http://host1:8081/sparql \
//	                -endpoint u1=http://host2:8082/sparql \
//	                -query 'SELECT ?s WHERE { ?s ?p ?o } LIMIT 10'
//	lusail serve    -addr :8094 -endpoint u0=... -endpoint u1=...
//
// "lusail <verb> -h" lists a verb's flags. query and serve share the
// engine flags -endpoint, -catalog, -catalog-ttl, -on-failure and
// -disable-sape; they differ only in the -on-failure default (query fails
// the whole query, serve degrades to partial answers).
//
// Every verb exits 0 on success, 1 on a runtime failure and 2 on a usage
// error, and validates all its flags before it touches the network or a
// file. SIGINT and SIGTERM cancel the verb's context: serve drains its
// in-flight queries, endpoint closes its listener and store, and both then
// exit 0; the other verbs stop early with exit 1. A second signal kills
// the process.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lusail"
)

// verb runs one subcommand and returns its exit code.
type verb func(ctx context.Context, args []string, stdout, stderr io.Writer) int

const usageLine = "usage: lusail {query|serve|endpoint|load|catalog|datagen} [flags]"

var verbs = map[string]verb{
	"query":    runQuery,
	"serve":    runServe,
	"endpoint": runEndpoint,
	"load":     runLoad,
	"catalog":  runCatalog,
	"datagen":  runDatagen,
}

func main() {
	ctx, stop := shutdownContext()
	// The first signal cancels ctx; stop then restores the default
	// handling, so a second one kills a verb blocked where ctx cannot
	// reach (reading stdin, a bulk load's final merge).
	go func() {
		<-ctx.Done()
		stop()
	}()
	code := dispatch(ctx, verbs, usageLine, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// shutdownContext is cancelled by SIGINT or SIGTERM, the signals a
// terminal, kill and container runtimes send.
func shutdownContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// dispatch runs the verb that args[0] names, or prints the usage line.
func dispatch(ctx context.Context, verbs map[string]verb, help string, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		if v, ok := verbs[args[0]]; ok {
			return v(ctx, args[1:], stdout, stderr)
		}
	}
	fmt.Fprintln(stderr, help)
	return 2
}

// newFlagSet returns the flag set of the verb name; its parse errors and
// usage go to stderr.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("lusail "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parse parses args into fs. When it fails, the flag package has already
// reported why, and code is the exit code: 0 for -h, 2 for a bad flag.
func parse(fs *flag.FlagSet, args []string) (code int, ok bool) {
	switch err := fs.Parse(args); {
	case err == nil:
		return 0, true
	case errors.Is(err, flag.ErrHelp):
		return 0, false
	default:
		return 2, false
	}
}

// usage reports a usage error and returns exit code 2.
func usage(fs *flag.FlagSet, err error) int {
	fmt.Fprintf(fs.Output(), "%s: %v\n", fs.Name(), err)
	return 2
}

// fail reports a runtime failure and returns exit code 1.
func fail(fs *flag.FlagSet, err error) int {
	fmt.Fprintf(fs.Output(), "%s: %v\n", fs.Name(), err)
	return 1
}

// endpointFlag is the repeatable -endpoint name=url flag.
type endpointFlag []string

// addEndpointFlag defines -endpoint on fs.
func addEndpointFlag(fs *flag.FlagSet) *endpointFlag {
	e := new(endpointFlag)
	fs.Var(e, "endpoint", "endpoint as name=url (repeatable)")
	return e
}

func (e *endpointFlag) String() string { return strings.Join(*e, ",") }

func (e *endpointFlag) Set(spec string) error {
	if name, url, ok := strings.Cut(spec, "="); !ok || name == "" || url == "" {
		return errors.New("want name=url")
	}
	*e = append(*e, spec)
	return nil
}

// check reports a usage error when no -endpoint was given.
func (e endpointFlag) check() error {
	if len(e) == 0 {
		return errors.New("at least one -endpoint name=url is required")
	}
	return nil
}

// endpoints returns one HTTP endpoint per spec, instrumented so -explain's
// per-endpoint table and every /metrics listener have data.
func (e endpointFlag) endpoints() []lusail.Endpoint {
	eps := make([]lusail.Endpoint, len(e))
	for i, spec := range e {
		name, url, _ := strings.Cut(spec, "=")
		eps[i] = lusail.Instrument(lusail.NewHTTPEndpoint(name, url), nil)
	}
	return eps
}

// engineFlags are the flags query and serve share; they configure the
// verb's engine.
type engineFlags struct {
	endpoints  *endpointFlag
	catalog    string
	catalogTTL time.Duration
	onFailure  string
	noSAPE     bool
}

// addEngineFlags defines the engine flags on fs; onFailure is the verb's
// default failure policy.
func addEngineFlags(fs *flag.FlagSet, onFailure string) *engineFlags {
	f := &engineFlags{endpoints: addEndpointFlag(fs)}
	fs.StringVar(&f.catalog, "catalog", "", "endpoint catalog file (built with lusail catalog build) for probe-free source selection and cardinality estimation")
	fs.DurationVar(&f.catalogTTL, "catalog-ttl", 24*time.Hour, "treat catalog summaries older than this as stale (0 = never stale)")
	fs.StringVar(&f.onFailure, "on-failure", onFailure, "endpoint failure policy: fail (whole query errors) or degrade (partial results from the surviving endpoints, with circuit breakers and hedged probes)")
	fs.BoolVar(&f.noSAPE, "disable-sape", false, "run with LADE only (no selectivity-aware execution)")
	return f
}

// check reports a usage error in the engine flags.
func (f *engineFlags) check() error {
	if f.onFailure != "fail" && f.onFailure != "degrade" {
		return fmt.Errorf("invalid -on-failure %q, want fail or degrade", f.onFailure)
	}
	return f.endpoints.check()
}

// engine opens the catalog, if any, and builds the engine; trace records
// each query's span tree in its Profile.
func (f *engineFlags) engine(stderr io.Writer, trace bool) (*lusail.Engine, error) {
	opts := lusail.DefaultOptions()
	opts.DisableSAPE = f.noSAPE
	opts.Trace = trace
	if f.onFailure == "degrade" {
		opts.OnEndpointFailure = lusail.Degrade
		opts.Resilience = lusail.DefaultResilience()
	}
	if f.catalog != "" {
		cat, err := lusail.OpenCatalog(f.catalog, f.catalogTTL)
		if err != nil {
			return nil, err
		}
		if cat.Len() == 0 {
			fmt.Fprintf(stderr, "lusail: catalog %s is empty; run lusail catalog build first (falling back to probes)\n", f.catalog)
		}
		opts.Catalog = cat
	}
	return lusail.NewEngine(f.endpoints.endpoints(), opts)
}

// openInput opens the input file path, or stdin for "-".
func openInput(path string) (io.ReadCloser, error) {
	if path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(path)
}
