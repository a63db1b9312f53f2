// The benchmark's workloads (see README.md for why each exists).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// batch_dblp (dblp = true) and batch_recruitment: train on half the
/// entities, link each held-out entity with Maroon::Link in a closed loop,
/// then BatchLinker::LinkAll over them with two workers.
void RunBatchWorkload(const Args& args, bool dblp, RunResult* result);

/// stream_ingest: durable StreamLinker ingest with a store query mix and an
/// open-loop /metrics scraper, then crash recovery by re-Open.
void RunStreamWorkload(const Args& args, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
