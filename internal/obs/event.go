package obs

import "encoding/json"

// Version is the event-schema version carried in Event.V. Bump it when
// a field changes meaning or disappears; adding omitempty fields at
// the end is compatible and does not bump it.
const Version = 1

// Event is one line of the structured tuning narration, serialized as
// JSONL. The struct is flat and the JSON field order is the struct
// field order (pinned by the golden test), so streams diff cleanly.
// Unused fields are omitted; which fields a given Type populates is
// the taxonomy table in DESIGN.md, "Observability".
type Event struct {
	// V is the schema version (always Version on emitted events).
	V int `json:"v"`
	// TS is the wall-clock timestamp (RFC3339Nano, UTC) from the
	// emitting Observer's injected clock. Narration only: nothing in
	// the search reads it back.
	TS string `json:"ts"`
	// Type names the lifecycle point (Ev* constants).
	Type string `json:"type"`

	Task      string  `json:"task,omitempty"`
	Target    string  `json:"target,omitempty"`
	Round     int     `json:"round,omitempty"`
	Phase     string  `json:"phase,omitempty"`
	Trace     string  `json:"trace,omitempty"`
	Job       string  `json:"job,omitempty"`
	Worker    string  `json:"worker,omitempty"`
	Signature string  `json:"signature,omitempty"`
	Seconds   float64 `json:"seconds,omitempty"`
	DurMS     float64 `json:"dur_ms,omitempty"`
	Count     int     `json:"count,omitempty"`
	Trials    int     `json:"trials,omitempty"`
	Detail    string  `json:"detail,omitempty"`
}

// Event types. One emitter per type: the tuner side (policy, sched,
// ansor), the fleet client, the broker, or the worker.
const (
	EvTaskStart         = "task_start"         // tuner: a task's tuning begins
	EvTaskEnd           = "task_end"           // tuner: a task's tuning ends
	EvRoundStart        = "round_start"        // policy: a round's proposal begins
	EvRoundEnd          = "round_end"          // policy: a round's commit ends (or its proposal went unused)
	EvPhase             = "phase"              // policy: one pprof-labeled phase finished
	EvWaveScheduled     = "wave_scheduled"     // sched: gradient scheduler dispatches a wave
	EvProposalsPrepared = "proposals_prepared" // sched: proposals computed ahead of the picks that will commit them
	EvModelTrained      = "model_trained"      // policy: cost model refit/boosted
	EvBestImproved      = "best_improved"      // policy: a new task-best program
	EvWarmStart         = "warm_start"         // ansor: warm-start absorption summary
	EvBatchQueued       = "batch_queued"       // fleet client: batch accepted by broker
	EvBatchLeased       = "batch_leased"       // broker: programs leased to a worker
	EvBatchMeasured     = "batch_measured"     // broker: worker results accepted
	EvBatchReported     = "batch_reported"     // fleet client: batch results returned to search
	EvFleetRequeue      = "fleet_requeue"      // broker: expired lease requeued
	EvQuarantine        = "fleet_quarantine"   // broker: worker quarantined
	EvWorkerLease       = "worker_lease"       // worker: lease granted (worker's view)
	EvWorkerResult      = "worker_result"      // worker: results posted (worker's view)
)

// Encode serializes the event as one JSONL line (no trailing newline).
func (e Event) Encode() ([]byte, error) { return json.Marshal(e) }
