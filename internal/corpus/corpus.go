// Package corpus provides the synthetic evaluation programs standing in for
// the paper's open-source subjects (grep's dfa.c, bftpd, mingetty, identd).
// Each program is written in the cminor subset, is annotated the way the
// paper's experiments annotate their subjects, and is runnable under
// internal/interp so tests can validate behaviour, not just typechecking.
// See DESIGN.md for the substitution rationale.
package corpus

import "strings"

// Program is one evaluation subject.
type Program struct {
	Name        string
	Description string
	Source      string
}

// Lines counts non-blank, non-comment source lines (the paper's "lines"
// metric).
func (p Program) Lines() int { return NonBlankLines(p.Source) }

// NonBlankLines counts non-blank, non-comment lines.
func NonBlankLines(src string) int {
	n := 0
	inBlock := false
	for _, line := range strings.Split(src, "\n") {
		s := strings.TrimSpace(line)
		if inBlock {
			if idx := strings.Index(s, "*/"); idx >= 0 {
				s = strings.TrimSpace(s[idx+2:])
				inBlock = false
			} else {
				continue
			}
		}
		if idx := strings.Index(s, "/*"); idx >= 0 && !strings.Contains(s[:idx], "//") {
			if !strings.Contains(s[idx:], "*/") {
				inBlock = true
			}
			s = strings.TrimSpace(s[:idx])
		}
		if s == "" || strings.HasPrefix(s, "//") {
			continue
		}
		n++
	}
	return n
}

// All returns every corpus program.
func All() []Program {
	return []Program{GrepDFA(), Bftpd(), Mingetty(), Identd()}
}

// Lookup returns the corpus program called name, bftpd's fixed and exploit
// variants included.
func Lookup(name string) (Program, bool) {
	for _, p := range append(All(), BftpdFixed(), BftpdExploit()) {
		if p.Name == name {
			return p, true
		}
	}
	return Program{}, false
}
