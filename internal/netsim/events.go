package netsim

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// EventLog records the fabric's seeded fault-model decisions —
// listens, dial outcomes (ok / dropped / refused / blackholed),
// partitions, blackholes and the connections they sever — grouped per
// directed link. Within one link the sequence is deterministic for a
// given fabric seed and scenario, and Dump orders links
// lexicographically, so two runs of the same scenario from the same
// seed produce byte-identical dumps regardless of goroutine
// interleaving across links.
//
// CutAfterBytes severances are kept apart, in Cuts: whether a cut fires
// depends on how far a peer wrote before its client hung up, which is a
// traffic outcome, not a seeded decision, so Dump leaves them out.
type EventLog struct {
	mu      sync.Mutex
	perLink map[string][]string
	cuts    []string
}

func newEventLog() *EventLog {
	return &EventLog{perLink: make(map[string][]string)}
}

func (l *EventLog) add(link, format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.perLink[link] = append(l.perLink[link], fmt.Sprintf(format, args...))
}

// addCut records one CutAfterBytes severance on link.
func (l *EventLog) addCut(link, format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cuts = append(l.cuts, link+" | "+fmt.Sprintf(format, args...))
}

// Cuts returns the CutAfterBytes severances in occurrence order, one
// "link | event" entry each.
func (l *EventLog) Cuts() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.cuts...)
}

// Dump renders the seeded decisions, one "link | event" line per entry, links
// sorted, events in occurrence order within each link.
func (l *EventLog) Dump() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	links := make([]string, 0, len(l.perLink))
	for k := range l.perLink {
		links = append(links, k)
	}
	sort.Strings(links)
	var b strings.Builder
	for _, link := range links {
		for i, ev := range l.perLink[link] {
			fmt.Fprintf(&b, "%s | #%d %s\n", link, i+1, ev)
		}
	}
	return b.String()
}

// Count returns how many seeded decisions contain substr.
func (l *EventLog) Count(substr string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, evs := range l.perLink {
		for _, ev := range evs {
			if strings.Contains(ev, substr) {
				n++
			}
		}
	}
	return n
}
