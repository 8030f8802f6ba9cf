// Package tivshard is the lockorder fixture for the gateway's
// declared hierarchy: applyMu < journalMu < subMu.
package tivshard

import "sync"

type gateway struct {
	applyMu   sync.Mutex
	journalMu sync.Mutex
	subMu     sync.RWMutex
}

// orderedOK nests in the declared direction.
func (g *gateway) orderedOK() {
	g.journalMu.Lock()
	g.subMu.Lock()
	g.subMu.Unlock()
	g.journalMu.Unlock()
}

// inverted nests against the declared direction.
func (g *gateway) inverted() {
	g.subMu.Lock()
	g.journalMu.Lock() // want "lock order violation: journalMu acquired while holding subMu"
	g.journalMu.Unlock()
	g.subMu.Unlock()
}

// rlockCounts: read locks participate in deadlock cycles too.
func (g *gateway) rlockCounts() {
	g.subMu.RLock()
	g.journalMu.Lock() // want "lock order violation: journalMu acquired while holding subMu"
	g.journalMu.Unlock()
	g.subMu.RUnlock()
}

// selfDeadlock re-acquires a held non-reentrant mutex.
func (g *gateway) selfDeadlock() {
	g.journalMu.Lock()
	g.journalMu.Lock() // want "self-deadlock"
	g.journalMu.Unlock()
	g.journalMu.Unlock()
}

// viaCallee inverts the order through a same-package call: the callee
// summary carries its acquisitions to this call site.
func (g *gateway) viaCallee() {
	g.subMu.Lock()
	g.takeJournal() // want "call to takeJournal acquires journalMu while holding subMu"
	g.subMu.Unlock()
}

func (g *gateway) takeJournal() {
	g.journalMu.Lock()
	g.journalMu.Unlock()
}

// viaTransitiveCallee inverts through two hops: summaries close
// transitively.
func (g *gateway) viaTransitiveCallee() {
	g.subMu.Lock()
	g.hop() // want "call to hop acquires journalMu while holding subMu"
	g.subMu.Unlock()
}

func (g *gateway) hop() {
	g.takeJournal()
}

// reentrantCallee re-acquires a held mutex through a call.
func (g *gateway) reentrantCallee() {
	g.journalMu.Lock()
	g.takeJournal() // want "may re-acquire journalMu already held here"
	g.journalMu.Unlock()
}

// applyThenJournalOK is the ApplyBatch shape: the update sequencer
// is held across the journal critical section.
func (g *gateway) applyThenJournalOK() {
	g.applyMu.Lock()
	defer g.applyMu.Unlock()
	g.journalMu.Lock()
	g.journalMu.Unlock()
}

// journalThenApply takes the sequencer inside the journal lock.
func (g *gateway) journalThenApply() {
	g.journalMu.Lock()
	g.applyMu.Lock() // want "lock order violation: applyMu acquired while holding journalMu"
	g.applyMu.Unlock()
	g.journalMu.Unlock()
}

// goroutineOK: a spawned goroutine does not run under the launcher's
// locks, so its journalMu acquisition is not nested under subMu.
func (g *gateway) goroutineOK() {
	g.subMu.Lock()
	go func() {
		g.journalMu.Lock()
		g.journalMu.Unlock()
	}()
	g.subMu.Unlock()
}

// earlyReturnOK: a lock taken in a branch that always returns is not
// held on the fall-through path (the deferred-Unlock fast path).
func (g *gateway) earlyReturnOK(fast bool) {
	if fast {
		g.subMu.Lock()
		defer g.subMu.Unlock()
		return
	}
	g.takeJournal() // subMu not held here: branch above terminated
}
