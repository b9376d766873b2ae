#ifndef DUALSIM_COORD_COORDINATOR_H_
#define DUALSIM_COORD_COORDINATOR_H_

/// Distributed serving coordinator (DESIGN.md §13). One Coordinator is a
/// TCP endpoint speaking the ordinary client protocol (service/protocol.h)
/// whose execution engine is a fleet of per-partition worker processes —
/// each a stock dualsim_serve / QueryService over a replica of the same
/// graph database. A client SUBMIT fans out as one partition-scoped
/// SUBMIT per partition; workers report every embedding *touching* their
/// partition and the coordinator merges the streams, accepting an
/// embedding only from its owner partition (the lowest home part over its
/// matched vertices — distsim/partitioner.h), so boundary-spanning
/// embeddings reported by several workers count exactly once and the
/// merged total is byte-identical to a single-node run.
///
/// Failure semantics: a worker that dies or errors mid-dispatch is retried
/// (bounded, with respawn when the coordinator spawned it); partitions
/// still failing after the retries yield a PARTIAL_RESULT frame followed
/// by a RESULT carrying WireCode::kPartialResult — never a silent wrong
/// count and never a hang. Deadlines propagate to workers at dispatch and
/// are enforced coordinator-side by a watchdog that first fans out CANCEL
/// and, after a grace window, severs the worker connections outright.
/// Client CANCEL and coordinator drain fan out the same way, with
/// first-writer-wins cancel reasons deciding the terminal code. The socket,
/// frame loop, ledger and drain sequence live in the shared FrontEnd shell
/// (service/front_end.h); this class adds spawn/attach, the handshake,
/// dispatch and merge, and the cancel/abort ladder.

#include <sys/types.h>

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "service/front_end.h"
#include "service/protocol.h"
#include "storage/disk_graph.h"
#include "util/status.h"

namespace dualsim::coord {

/// One worker process the coordinator dispatches to.
struct WorkerEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Process id when the coordinator spawned this worker; -1 when it
  /// attached to an externally managed one (never killed or respawned).
  pid_t pid = -1;
};

struct CoordinatorOptions {
  /// Loopback by default, like the worker services.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Partition count == worker count. Placement is the pure hash
  /// PartitionOf(v, num_parts, partition_seed); workers need no partition
  /// state beyond the scope carried by each dispatched SUBMIT.
  int num_parts = 2;
  std::uint64_t partition_seed = 0;
  /// Graph database every worker serves (replicated; the scope filter
  /// does the partitioning). Also opened coordinator-side for the shape
  /// handshake.
  std::string db_path;
  /// Spawn mode: exec this binary (dualsim_serve) once per partition.
  /// Leave empty and fill attach_endpoints to attach instead.
  std::string worker_binary;
  /// Extra argv forwarded to each spawned worker after
  /// "<db_path> --port 0 --port-file <file>".
  std::vector<std::string> worker_args;
  /// Attach mode: "host:port" per partition (size must equal num_parts).
  std::vector<std::string> attach_endpoints;
  /// How long a spawned worker may take to write its port file.
  std::uint32_t worker_spawn_timeout_ms = 10'000;
  /// Re-dispatch attempts per partition after the first failure; 0 fails
  /// a partition on its first dead worker.
  int max_retries = 1;
  /// Grace for in-flight requests on drain before they are cancelled.
  std::uint32_t drain_timeout_ms = 10'000;
  /// After a deadline/drain CANCEL fan-out, how long the watchdog waits
  /// before severing worker connections ("never a hang past the
  /// deadline" is enforced here, not trusted to the worker).
  std::uint32_t abort_grace_ms = 500;
  /// Metrics JSON flush target on drain; empty = DUALSIM_METRICS_OUT.
  std::string metrics_path;
  /// Test seam: invoked on the dispatch thread right before each
  /// (partition, attempt) dispatch — fault tests SIGKILL the worker here.
  std::function<void(int part, int attempt)> on_dispatch;
};

class Coordinator {
 public:
  explicit Coordinator(CoordinatorOptions options);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Spawns (or attaches to) the workers, verifies each with a
  /// WORKER_HELLO shape/capability handshake, then binds and serves.
  Status Start();

  /// Bound TCP port (the ephemeral choice when options.port == 0).
  std::uint16_t port() const { return shell_.port(); }

  /// The worker fleet (stable after Start); fault tests take pids here.
  std::vector<WorkerEndpoint> workers() const;

  bool draining() const { return shell_.draining(); }

  /// Blocks up to `timeout_ms` for a client SHUTDOWN drain; true when one
  /// completed. The caller still runs Stop() for final teardown.
  bool WaitForShutdown(std::uint32_t timeout_ms) {
    return shell_.WaitForShutdown(timeout_ms);
  }

  /// Drain + teardown: stop accepting, finish or cancel in-flight
  /// requests, stop spawned workers (SIGTERM then SIGKILL), join
  /// everything, flush metrics.
  void Stop();

  /// Point-in-time admission ledger (the STATUS response). queue_depth is
  /// always 0: the coordinator has no admission queue, requests fan out
  /// on arrival.
  service::StatusInfo Snapshot() const { return shell_.Snapshot(); }

 private:
  using Connection = service::Connection;
  struct CoordRequest;
  struct PartOutcome;

  bool HandleFrame(const std::shared_ptr<Connection>& conn,
                   const service::Frame& frame);
  /// Watchdog tick: the deadline and client-cancel abort ladder.
  void EnforceDeadlines();

  void HandleSubmit(const std::shared_ptr<Connection>& conn,
                    std::string_view payload);
  void HandleCancel(const std::shared_ptr<Connection>& conn,
                    std::string_view payload);

  /// Fans one admitted request out to every partition, merges, answers.
  /// Runs on a detached runner thread; runner_count_ tracks liveness.
  void RunRequest(std::shared_ptr<CoordRequest> req);

  /// One partition's dispatch: bounded attempt loop of connect -> v3
  /// SUBMIT -> merge the embedding stream (owner-accept, duplicate-drop).
  void DispatchPartition(const std::shared_ptr<CoordRequest>& req, int part,
                         PartOutcome* out);

  Status SpawnWorker(int part);
  /// Respawns partition `part`'s worker if the coordinator owns a pid and
  /// the process is gone; attach-mode endpoints are left for reconnect.
  void MaybeRespawnWorker(int part);

  void CancelWorkers(const std::shared_ptr<CoordRequest>& req);
  void AbortWorkers(const std::shared_ptr<CoordRequest>& req);

  /// Drain ladder (cancel, abort, wait), then waits out the detached
  /// runner threads.
  void DrainInFlight();

  CoordinatorOptions options_;
  std::unique_ptr<DiskGraph> disk_;  // shape only; workers do the reading
  service::FrontEnd shell_;

  mutable std::mutex workers_mu_;
  std::vector<WorkerEndpoint> workers_;  // indexed by partition
  int spawn_counter_ = 0;                // unique port-file names

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;     // drain: no active requests
  std::condition_variable runners_cv_;  // drain: runner threads done
  int runner_count_ = 0;                // live RunRequest threads
  std::vector<std::shared_ptr<CoordRequest>> active_;
};

}  // namespace dualsim::coord

#endif  // DUALSIM_COORD_COORDINATOR_H_
