// The three workloads.  Each runs set-up, measures for opts.seconds, checks
// every answer and fills an Outcome.  With a tracer the same pass records
// spans around its calls into each layer and adds that workload's per-layer
// metrics to Outcome::layers.

#ifndef LAYERBENCH_WORKLOADS_H_
#define LAYERBENCH_WORKLOADS_H_

#include "common.h"
#include "tracer.h"

namespace layerbench {

/// In-process build, then back-to-back ParallelFlatEkdbSelfJoin at nproc
/// threads on the clustered set (closed loop, one join at a time).
Outcome RunSelfJoin(const Options& opts, Tracer* tracer);

/// Open loop of batch=1 RangeQuery frames against an in-process Server.
Outcome RunQuery(const Options& opts, Tracer* tracer);

/// Drift-timeline replay against an updatable index: Insert/Remove batches
/// beside cluster-chasing RangeQuery frames, open loop.
Outcome RunChurn(const Options& opts, Tracer* tracer);

}  // namespace layerbench

#endif  // LAYERBENCH_WORKLOADS_H_
