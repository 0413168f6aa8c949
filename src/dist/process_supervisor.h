// Process supervision for the sharded service: spawn, signal, and reap
// parsdd_worker processes (DESIGN.md §8).
//
// Spawning uses a socketpair + fork/exec rather than a listening socket at
// a filesystem path: the worker inherits its end of the pair across exec
// (passed as `--fd N`), so there is no path to collide on, no unlink race,
// and no connect/accept handshake to time out — the kernel guarantees the
// stream exists before the child runs.  The pair IS a Unix-domain stream
// socket, so the wire protocol and its framing are unchanged from what a
// path-based listener would carry.
//
// Death detection is split by role: the coordinator's per-worker receiver
// observes the *stream* dying (EOF / ECONNRESET on read — immediate, no
// polling), and this module then confirms and reaps the *process* with
// waitpid.  kill() is exposed for fault injection: the worker-kill tests
// SIGKILL a live worker and assert the coordinator's recovery path.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

#include "util/status.h"

namespace parsdd::dist {

struct WorkerProcess {
  pid_t pid = -1;
  /// Coordinator-side end of the socketpair; owned by the coordinator,
  /// closed by destroy_worker().
  int fd = -1;
  bool valid() const { return pid > 0 && fd >= 0; }
};

/// fork/execs `binary --fd N <extra_args...>` with the worker end of a
/// fresh socketpair.  Internal errors (socketpair/fork failure) and a
/// NotFound for a binary that could not be executed (the child exits 127;
/// detected on first read, not here — exec failure after fork cannot be
/// reported synchronously without extra plumbing).
StatusOr<WorkerProcess> spawn_worker(const std::string& binary,
                                     const std::vector<std::string>& args);

/// Sends a signal to the worker process (fault injection uses SIGKILL).
Status signal_worker(const WorkerProcess& w, int sig);

/// Closes the socket and reaps the process: SIGKILL if still alive, then a
/// blocking waitpid.  Safe on an already-dead or already-destroyed worker.
void destroy_worker(WorkerProcess& w);

/// Non-blocking reap after the stream died; returns true once the process
/// has actually exited (and fills *exit_code when it exited normally).
bool try_reap(WorkerProcess& w, int* exit_code);

}  // namespace parsdd::dist
