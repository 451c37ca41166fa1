package lint

import (
	"fmt"
	"go/ast"
)

// walltimeCheck bans wall-clock reads and real-time waits in deterministic
// packages. Everything that feeds golden rows must derive its notion of
// time from the simtime virtual clock: a single time.Now() turns
// byte-identical output into machine-speed-dependent output. The pure
// time package surface — Duration arithmetic, constants like
// time.Millisecond, constructors like time.Date/time.Unix — stays legal;
// only the functions that read or wait on the machine clock are banned.
type walltimeCheck struct{}

func (walltimeCheck) Name() string { return "walltime" }

func (walltimeCheck) Doc() string {
	return "no wall-clock reads or waits (time.Now/Since/Until/Sleep/After/Tick/NewTimer/NewTicker/AfterFunc) in deterministic packages; all time flows from simtime"
}

func (walltimeCheck) Applies(pkg *Package, cfg *Config) bool {
	return cfg.inDeterministic(pkg.Path)
}

// walltimeBanned is the machine-clock surface of package time. Methods on
// time.Time/time.Duration values never appear here: pkgMemberRefs only
// yields package-level selector references.
var walltimeBanned = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

func (walltimeCheck) Run(pkg *Package, cfg *Config) []Finding {
	var out []Finding
	pkgMemberRefs(pkg, "time", func(file *ast.File, sel *ast.SelectorExpr) {
		name := sel.Sel.Name
		if !walltimeBanned[name] {
			return
		}
		out = append(out, Finding{
			Pos:   pkg.Fset.Position(sel.Pos()),
			Check: "walltime",
			Message: fmt.Sprintf("time.%s reads the machine clock: deterministic packages must take time from the simtime scheduler (Scheduler.Now, At, AtArg, NewTicker)",
				name),
		})
	})
	return out
}
