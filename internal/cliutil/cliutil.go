// Package cliutil holds the flag-parsing helpers shared by the cmd/
// tools: the names users type for routing-table implementations and
// architecture instances.
package cliutil

import (
	"fmt"
	"os"
	"strings"

	"taco/internal/fu"
	"taco/internal/rtable"
)

// KindByName parses a routing-table implementation name: the canonical
// rtable names plus the CLI conveniences below. Unknown names get the
// same sorted valid-name list rtable's strict parsers quote.
func KindByName(name string) (rtable.Kind, error) {
	switch strings.ToLower(name) {
	case "seq":
		return rtable.Sequential, nil
	case "tree", "balancedtree":
		return rtable.BalancedTree, nil
	case "lctrie", "lc-trie":
		return rtable.Multibit, nil
	case "tiledtcam", "tcam":
		return rtable.TiledTCAM, nil
	case "cram":
		return rtable.Compressed, nil
	}
	return rtable.KindByName(strings.ToLower(name))
}

// KindsByNames parses a comma-separated list of table implementation
// names ("seq,tree,cam,multibit").
func KindsByNames(list string) ([]rtable.Kind, error) {
	var kinds []rtable.Kind
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		k, err := KindByName(name)
		if err != nil {
			return nil, err
		}
		kinds = append(kinds, k)
	}
	return kinds, nil
}

// ConfigByName parses an architecture instance name for a table kind.
func ConfigByName(name string, kind rtable.Kind) (fu.Config, error) {
	switch strings.ToLower(name) {
	case "1bus", "1bus1fu":
		return fu.Config1Bus1FU(kind), nil
	case "3bus", "3bus1fu":
		return fu.Config3Bus1FU(kind), nil
	case "3bus3fu":
		return fu.Config3Bus3FU(kind), nil
	}
	return fu.Config{}, fmt.Errorf("unknown config %q (1bus | 3bus1fu | 3bus3fu)", name)
}

// Fatal reports err on stderr as "prog: err" and exits with status 1:
// the shared failure path of the cmd/ tools whose exit 1 means an error.
func Fatal(prog string, err error) {
	fmt.Fprintln(os.Stderr, prog+":", err)
	os.Exit(1)
}
