package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"hadfl"
)

// State is a job's position in its lifecycle.
type State string

// Job lifecycle: Queued → Running → one of {Done, Failed, Canceled}.
// A queued job may jump straight to Canceled without running.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Event is one entry in a job's progress stream: either a state
// transition or a per-round training update.
type Event struct {
	Type  string             `json:"type"` // "state" or "round"
	State State              `json:"state,omitempty"`
	Round *hadfl.RoundUpdate `json:"round,omitempty"`
}

// subBuffer is each subscriber's channel capacity; a subscriber that
// falls further behind than this skips round events (state events are
// re-derivable from GET /runs/{id}).
const subBuffer = 64

// Job is one unit of work flowing through the service: a scheme +
// options pair, content-addressed by ID (the hadfl.Fingerprint). It
// carries its own event log so any number of subscribers can replay
// and follow progress.
type Job struct {
	ID      string
	Scheme  string
	Options hadfl.Options
	Created time.Time

	mu       sync.Mutex
	state    State
	started  time.Time
	finished time.Time
	result   *hadfl.Result
	jerr     *JobError
	cancel   context.CancelFunc // installed by the pool while running
	done     chan struct{}
	events   []Event
	subs     map[int]chan Event
	nextSub  int

	// enc caches the job's terminal JobStatus wire bytes (index:
	// withCurve), written at most once per slot by Server.statusBytes.
	// A terminal job is immutable, so status polls and cache-hit
	// submissions write these stored bytes instead of re-marshaling the
	// same JSON on every request.
	enc [2]atomic.Pointer[[]byte]
}

func newJob(id, scheme string, opts hadfl.Options) *Job {
	j := &Job{
		ID:      id,
		Scheme:  scheme,
		Options: opts,
		Created: time.Now(),
		state:   StateQueued,
		done:    make(chan struct{}),
		subs:    make(map[int]chan Event),
	}
	j.events = append(j.events, Event{Type: "state", State: StateQueued})
	return j
}

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the run result and error; both are nil until the job
// is terminal, and exactly one is non-nil afterwards.
func (j *Job) Result() (*hadfl.Result, *JobError) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.jerr
}

// Times returns the started/finished timestamps (zero until reached).
func (j *Job) Times() (started, finished time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.started, j.finished
}

// RunningFor returns how long the job has been executing: zero while
// queued, live duration while running, final duration once terminal.
func (j *Job) RunningFor() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.runningForLocked()
}

func (j *Job) runningForLocked() time.Duration {
	switch {
	case j.started.IsZero():
		return 0
	case j.finished.IsZero():
		return time.Since(j.started)
	default:
		return j.finished.Sub(j.started)
	}
}

// jobView is a consistent point-in-time copy of a job's mutable state,
// taken under one mutex hold so a concurrently finishing job cannot
// yield a torn read (e.g. state "running" next to a final result).
type jobView struct {
	state    State
	started  time.Time
	finished time.Time
	running  time.Duration
	result   *hadfl.Result
	jerr     *JobError
}

func (j *Job) snapshot() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobView{
		state:    j.state,
		started:  j.started,
		finished: j.finished,
		running:  j.runningForLocked(),
		result:   j.result,
		jerr:     j.jerr,
	}
}

// start transitions Queued → Running and installs the cancel hook.
// It returns false if the job was canceled while still queued, in
// which case the worker must skip it.
func (j *Job) start(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	j.publishLocked(Event{Type: "state", State: StateRunning})
	return true
}

// publishRound fans a per-round update out to subscribers and the
// replay log.
func (j *Job) publishRound(u hadfl.RoundUpdate) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.publishLocked(Event{Type: "round", Round: &u})
}

// finish moves the job to a terminal state. Exactly one of res / jerr
// must be non-nil; the terminal state derives from the error's flags.
// Later calls are no-ops, so an abandoned runner goroutine delivering
// a stale result after a timeout cannot clobber the recorded outcome.
func (j *Job) finish(res *hadfl.Result, jerr *JobError) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.result, j.jerr = res, jerr
	switch {
	case jerr == nil:
		j.state = StateDone
	case jerr.Canceled:
		j.state = StateCanceled
	default:
		j.state = StateFailed
	}
	j.finished = time.Now()
	j.publishLocked(Event{Type: "state", State: j.state})
	for id, ch := range j.subs {
		close(ch)
		delete(j.subs, id)
	}
	close(j.done)
}

// Cancel aborts the job: a queued job becomes Canceled immediately; a
// running job has its context cut (the worker records the terminal
// state). Canceling a terminal job is a no-op.
func (j *Job) Cancel(cause error) {
	j.mu.Lock()
	if j.state == StateQueued {
		j.mu.Unlock()
		j.finish(nil, &JobError{
			JobID: j.ID, Scheme: j.Scheme, Options: j.Options,
			Path: []string{"queue"}, Err: cause, Canceled: true,
		})
		return
	}
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Subscribe returns a replay of all events so far plus a live channel
// for subsequent ones. The channel is closed when the job finishes or
// when the returned cancel function runs. For an already-terminal job
// the replay is complete and the channel is closed immediately.
func (j *Job) Subscribe() (replay []Event, live <-chan Event, cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	replay = append([]Event(nil), j.events...)
	ch := make(chan Event, subBuffer)
	if j.state.Terminal() {
		close(ch)
		return replay, ch, func() {}
	}
	id := j.nextSub
	j.nextSub++
	j.subs[id] = ch
	return replay, ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if ch, ok := j.subs[id]; ok {
			close(ch)
			delete(j.subs, id)
		}
	}
}

// publishLocked appends to the replay log and fans out without
// blocking: a subscriber more than subBuffer events behind misses the
// event. Callers hold j.mu.
func (j *Job) publishLocked(e Event) {
	j.events = append(j.events, e)
	for _, ch := range j.subs {
		select {
		case ch <- e:
		default:
		}
	}
}
