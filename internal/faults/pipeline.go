package faults

// Pipeline seam event names. The occurrence ordinal counts invocations
// of that stage (one per checkpoint), so On(3) fails the third
// checkpoint to reach it.
const (
	EvFrontFail  = "pipeline.front"
	EvBackFail   = "pipeline.back"
	EvAppendFail = "pipeline.append"
)

// PipelinePlan schedules kernel failures inside dedup's Checkpoint:
// Front fails after admission, before any state changes, Back fails
// after the hash/label/gather kernels, Append fails just before the
// record append.
type PipelinePlan struct {
	Front  Hits
	Back   Hits
	Append Hits
}

// ErrKernel is the injected GPU-kernel failure. Matches ErrInjected.
var ErrKernel = inject("kernel launch failed", nil)

// PipelineInjector builds the callback for dedup.Options.FaultInjector
// implementing plan.
func (in *Injector) PipelineInjector(plan PipelinePlan) func(stage string, ckpt uint32) error {
	return func(stage string, ckpt uint32) error {
		switch stage {
		case "front":
			if in.fire(EvFrontFail, plan.Front) {
				return ErrKernel
			}
		case "back":
			if in.fire(EvBackFail, plan.Back) {
				return ErrKernel
			}
		case "append":
			if in.fire(EvAppendFail, plan.Append) {
				return ErrKernel
			}
		}
		return nil
	}
}
