// Command qualrun executes a cminor program under the instrumented
// interpreter: casts to value-qualified types carry run-time checks of the
// qualifier's invariant (section 2.1.3), and a failed check is a fatal
// error.
//
// Usage:
//
//	qualrun [-quals file.qdl ...] [-taint] [-nochecks] program.c
//	qualrun -corpus grep-dfa|bftpd|bftpd-exploit|bftpd-fixed|mingetty|identd
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cminor"
	"repro/internal/corpus"
	"repro/internal/interp"
	"repro/internal/quals"
)

func main() {
	qualSources := map[string]string{}
	flag.Func("quals", "qualifier definition file (repeatable; default: standard library)", func(f string) error {
		data, err := os.ReadFile(f)
		if err == nil {
			qualSources[f] = string(data)
		}
		return err
	})
	taint := flag.Bool("taint", false, "use the taintedness configuration")
	noChecks := flag.Bool("nochecks", false, "disable instrumented qualifier checks")
	corpusName := flag.String("corpus", "", "run a built-in corpus program")
	flag.Parse()

	reg, err := quals.Load(qualSources, *taint)
	if err != nil {
		fatal(err)
	}

	var name, source string
	switch {
	case *corpusName != "":
		p, ok := corpus.Lookup(*corpusName)
		if !ok {
			fatal(fmt.Errorf("unknown corpus program %q", *corpusName))
		}
		name, source = p.Name+".c", p.Source
	case flag.NArg() == 1:
		data, rerr := os.ReadFile(flag.Arg(0))
		if rerr != nil {
			fatal(rerr)
		}
		name, source = flag.Arg(0), string(data)
	default:
		flag.Usage()
		os.Exit(2)
	}

	prog, err := cminor.Parse(name, source, reg.Names())
	if err != nil {
		fatal(err)
	}
	res, err := interp.Run(prog, reg, interp.Options{
		Stdout:        os.Stdout,
		RuntimeChecks: !*noChecks,
	})
	if err != nil {
		fatal(err)
	}
	if res.Failure != nil {
		fmt.Fprintln(os.Stderr, res.Failure.Error())
		os.Exit(134)
	}
	os.Exit(int(res.Exit))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qualrun:", err)
	os.Exit(2)
}
