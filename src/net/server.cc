#include "net/server.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.h"
#include "fault/failpoint.h"
#include "net/socket_util.h"

namespace freeway {

namespace {

constexpr size_t kReadChunk = 64 * 1024;
/// An HTTP request line + headers larger than this is not a scraper.
constexpr size_t kMaxHttpRequest = 8 * 1024;
/// Sanity cap on FREEWAY_NET_WORKERS / ServerOptions::num_workers.
constexpr size_t kMaxWorkers = 256;

bool StartsWithGet(const std::vector<char>& buf) {
  return buf.size() >= 4 && std::memcmp(buf.data(), "GET ", 4) == 0;
}

/// Worker-thread count: explicit option, else FREEWAY_NET_WORKERS, else 1.
size_t ResolveWorkerCount(size_t option_value) {
  size_t workers = option_value;
  if (workers == 0) {
    if (const char* env = std::getenv("FREEWAY_NET_WORKERS")) {
      const long parsed = std::atol(env);
      if (parsed >= 1) {
        workers = static_cast<size_t>(parsed);
      } else {
        FREEWAY_LOG(kWarning) << "ignoring FREEWAY_NET_WORKERS='" << env
                              << "' (want a positive integer)";
      }
    }
  }
  if (workers == 0) workers = 1;
  if (workers > kMaxWorkers) {
    FREEWAY_LOG(kWarning) << "clamping server workers from " << workers
                          << " to " << kMaxWorkers;
    workers = kMaxWorkers;
  }
  return workers;
}

}  // namespace

StreamServer::StreamServer(const Model& prototype, ServerOptions options)
    : options_(std::move(options)) {
  if (options_.runtime.metrics == nullptr) {
    options_.runtime.metrics = options_.metrics;
  }
  if (options_.metrics != nullptr) {
    MetricsRegistry* registry = options_.metrics;
    metrics_.accepted = registry->GetCounter(
        "freeway_net_connections_total{event=\"accepted\"}");
    metrics_.closed = registry->GetCounter(
        "freeway_net_connections_total{event=\"closed\"}");
    metrics_.active = registry->GetGauge("freeway_net_active_connections");
    metrics_.frames_in =
        registry->GetCounter("freeway_net_frames_total{dir=\"in\"}");
    metrics_.frames_out =
        registry->GetCounter("freeway_net_frames_total{dir=\"out\"}");
    metrics_.submits = registry->GetCounter("freeway_net_submits_total");
    metrics_.acks = registry->GetCounter("freeway_net_acks_total");
    metrics_.results = registry->GetCounter("freeway_net_results_total");
    metrics_.overloads = registry->GetCounter("freeway_net_overloads_total");
    metrics_.errors_sent = registry->GetCounter("freeway_net_errors_total");
    metrics_.decode_errors =
        registry->GetCounter("freeway_net_decode_errors_total");
    metrics_.duplicates =
        registry->GetCounter("freeway_net_duplicates_total");
    metrics_.ingest_log_errors =
        registry->GetCounter("freeway_net_ingest_log_errors_total");
    metrics_.not_leader =
        registry->GetCounter("freeway_net_not_leader_total");
    metrics_.torn_frames =
        registry->GetCounter("freeway_net_torn_frames_total");
    metrics_.results_dropped =
        registry->GetCounter("freeway_net_results_dropped_total");
    metrics_.http_requests =
        registry->GetCounter("freeway_net_http_requests_total");
    metrics_.frame_bytes = registry->GetHistogram(
        "freeway_net_frame_bytes", Histogram::DefaultSizeBounds());
    metrics_.request_seconds =
        registry->GetHistogram("freeway_net_request_seconds");
  }
  // Chain onto any user checkpoint hook: shard checkpoints are what anchor
  // steady-state ingest log truncation. Installed before the runtime is
  // constructed because the runtime copies its options; the handler guards
  // against firing before the coverage vectors below are sized (the
  // runtime's constructor seeds initial checkpoints).
  auto user_on_checkpoint = options_.runtime.fault.on_checkpoint;
  options_.runtime.fault.on_checkpoint =
      [this, user_on_checkpoint](size_t shard, uint64_t consumed) {
        if (user_on_checkpoint) user_on_checkpoint(shard, consumed);
        OnShardCheckpoint(shard, consumed);
      };
  runtime_ = std::make_unique<StreamRuntime>(
      prototype, options_.runtime,
      [this](const StreamResult& result) { OnResult(result); });
  coverage_enabled_ =
      options_.ingest.enabled && options_.runtime.fault.enabled;
  {
    std::lock_guard<std::recursive_mutex> lock(coverage_mutex_);
    const size_t shards = runtime_->num_shards();
    shard_outstanding_.resize(shards);
    shard_admitted_.assign(shards, 0);
    shard_consumed_.assign(shards, 0);
  }
}

StreamServer::~StreamServer() {
  Stop();
  // The wake pipes outlive the loops so that late WakeWorker() calls
  // (result callbacks racing a graceful stop, Stop() itself) always hit a
  // valid fd; with every loop joined it is finally safe to close them.
  for (auto& worker : workers_) {
    net::CloseFd(worker->wake_read_fd);
    net::CloseFd(worker->wake_write_fd);
    worker->wake_read_fd = -1;
    worker->wake_write_fd = -1;
  }
}

Status StreamServer::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (started_) return Status::FailedPrecondition("server already started");
  if (stop_requested_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server is stopped");
  }
  const size_t num_workers = ResolveWorkerCount(options_.num_workers);
  if (options_.replication.enabled && !options_.ingest.enabled) {
    return Status::InvalidArgument(
        "replication requires ingest.enabled: the replicated state machine "
        "is the ingest log");
  }

  // Durable ingest comes up before any socket exists: opening the log
  // replays it into the dedup index, so the very first SUBMIT already sees
  // the pre-restart watermarks. A log that cannot open fails Start —
  // serving without the promised durability would be silent data loss.
  if (options_.ingest.enabled) {
    IngestLogOptions log_options;
    log_options.directory = options_.ingest.log_dir;
    log_options.segment_max_bytes = options_.ingest.segment_max_bytes;
    log_options.fsync = options_.ingest.fsync;
    log_options.metrics = options_.metrics;
    ingest_log_ = std::make_unique<IngestLog>(log_options);
    Status opened = ingest_log_->Open(&dedup_);
    if (!opened.ok()) {
      ingest_log_.reset();
      return opened;
    }
  }

  // Listener set-up. With several workers the first choice is SO_REUSEPORT
  // sharding: every worker binds its own listener on the shared port and
  // the kernel spreads incoming connections across them. Where the kernel
  // refuses (NotImplemented), each worker instead polls a dup of one
  // listener and accept() arbitrates — no sharding, but identical
  // semantics.
  std::vector<int> listen_fds;
  auto cleanup = [&listen_fds] {
    for (int fd : listen_fds) net::CloseFd(fd);
  };
  reuseport_sharding_ = num_workers > 1;
  Result<int> first = net::CreateListenSocket(
      options_.bind_address, options_.port, options_.listen_backlog,
      reuseport_sharding_);
  if (!first.ok() && reuseport_sharding_ &&
      first.status().code() == StatusCode::kNotImplemented) {
    reuseport_sharding_ = false;
    first = net::CreateListenSocket(options_.bind_address, options_.port,
                                    options_.listen_backlog, false);
  }
  RETURN_IF_ERROR(first.status());
  listen_fds.push_back(*first);
  Result<uint16_t> port = net::LocalPort(listen_fds[0]);
  if (!port.ok()) {
    cleanup();
    return port.status();
  }
  port_ = *port;
  for (size_t i = 1; i < num_workers; ++i) {
    Result<int> fd =
        reuseport_sharding_
            ? net::CreateListenSocket(options_.bind_address, port_,
                                      options_.listen_backlog, true)
            : net::DuplicateSocket(listen_fds[0]);
    if (!fd.ok()) {
      cleanup();
      return fd.status();
    }
    listen_fds.push_back(*fd);
  }

  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->index = i;
    worker->listen_fd = listen_fds[i];
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      Status status =
          Status::IoError(std::string("pipe: ") + std::strerror(errno));
      cleanup();
      for (auto& w : workers_) {
        net::CloseFd(w->wake_read_fd);
        net::CloseFd(w->wake_write_fd);
      }
      workers_.clear();
      return status;
    }
    worker->wake_read_fd = pipe_fds[0];
    worker->wake_write_fd = pipe_fds[1];
    net::SetNonBlocking(worker->wake_read_fd, true).CheckOk();
    net::SetNonBlocking(worker->wake_write_fd, true).CheckOk();
    if (options_.metrics != nullptr) {
      const std::string label = "{worker=\"" + std::to_string(i) + "\"}";
      worker->connections = options_.metrics->GetCounter(
          "freeway_net_worker_connections_total" + label);
      worker->frames = options_.metrics->GetCounter(
          "freeway_net_worker_frames_total" + label);
      worker->loop_iterations = options_.metrics->GetCounter(
          "freeway_net_worker_loop_iterations_total" + label);
    }
    workers_.push_back(std::move(worker));
  }

  // Consensus comes up last among the fallible steps (listeners are bound,
  // so peers dialing this node connect and queue in the backlog until the
  // worker threads start below). Passing the recovered IngestLog length as
  // the applied count is the restart exactly-once contract: in replicated
  // operation every kBatch apply appends exactly one record and reverts
  // never happen, so last_lsn() counts precisely the batch commands this
  // node already applied.
  if (options_.replication.enabled) {
    ReplicationOptions replication = options_.replication;
    if (replication.metrics == nullptr) replication.metrics = options_.metrics;
    replicator_ = std::make_unique<Replicator>(
        replication,
        [this](const ReplicatedCommand& command) { ApplyReplicated(command); },
        [this](const Replicator::AckToken& token) { DeliverAck(token); });
    Status consensus = replicator_->Start(ingest_log_->last_lsn());
    if (!consensus.ok()) {
      replicator_.reset();
      cleanup();
      for (auto& w : workers_) {
        net::CloseFd(w->wake_read_fd);
        net::CloseFd(w->wake_write_fd);
      }
      workers_.clear();
      ingest_log_.reset();
      return consensus;
    }
  }

  started_ = true;
  running_.store(true, std::memory_order_release);
  for (auto& worker : workers_) {
    Worker* w = worker.get();
    w->thread = std::thread([this, w] { Loop(*w); });
  }
  return Status::OK();
}

void StreamServer::Stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  stop_requested_.store(true, std::memory_order_release);
  if (!started_) {
    // Never started: still quiesce the runtime so queued batches (from
    // direct runtime()->Submit use in tests) are processed.
    runtime_->Shutdown();
    return;
  }
  // Consensus stops first: the applier thread finishes its in-flight apply
  // (the runtime's drains are still live to free queue space for it) and no
  // new entries commit while the workers wind down.
  if (replicator_ != nullptr) replicator_->Stop();
  WakeAllWorkers();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

void StreamServer::Wait() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

void StreamServer::RouteStreamTo(uint64_t stream_id, size_t worker_index) {
  RouteShard& shard = route_table_[stream_id % kRouteShards];
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.worker_of[stream_id] = worker_index;
}

void StreamServer::OnResult(const StreamResult& result) {
  size_t worker_index = 0;
  bool routed = false;
  {
    RouteShard& shard = route_table_[result.stream_id % kRouteShards];
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.worker_of.find(result.stream_id);
    if (it != shard.worker_of.end()) {
      worker_index = it->second;
      routed = true;
    }
  }
  if (!routed || worker_index >= workers_.size()) {
    // No worker ever saw this stream (direct runtime()->Submit use) or the
    // server never started; there is no connection to write to.
    if (metrics_.results_dropped != nullptr) metrics_.results_dropped->Inc();
    return;
  }
  Worker& w = *workers_[worker_index];
  {
    std::lock_guard<std::mutex> lock(w.outbox_mutex);
    w.outbox.push_back(result);
  }
  WakeWorker(w);
}

void StreamServer::WakeWorker(Worker& w) {
  if (w.wake_write_fd < 0) return;
  const char byte = 1;
  // Non-blocking: a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] ssize_t ignored = ::write(w.wake_write_fd, &byte, 1);
}

void StreamServer::WakeAllWorkers() {
  for (auto& worker : workers_) WakeWorker(*worker);
}

void StreamServer::Loop(Worker& w) {
  std::vector<pollfd> pollfds;
  std::vector<int> conn_fds;
  while (!stop_requested_.load(std::memory_order_acquire)) {
    if (w.loop_iterations != nullptr) w.loop_iterations->Inc();
    pollfds.clear();
    conn_fds.clear();
    pollfds.push_back({w.listen_fd, POLLIN, 0});
    pollfds.push_back({w.wake_read_fd, POLLIN, 0});
    for (const auto& [fd, conn] : w.conns) {
      short events = POLLIN;
      if (conn->out_pos < conn->outbuf.size()) events |= POLLOUT;
      pollfds.push_back({fd, events, 0});
      conn_fds.push_back(fd);
    }
    const int ready =
        ::poll(pollfds.data(), pollfds.size(), options_.poll_timeout_millis);
    if (ready < 0 && errno != EINTR) {
      FREEWAY_LOG(kWarning) << "server poll failed: " << std::strerror(errno);
      break;
    }
    if (stop_requested_.load(std::memory_order_acquire)) break;
    if ((pollfds[1].revents & POLLIN) != 0) {
      char drain[256];
      while (::read(w.wake_read_fd, drain, sizeof(drain)) > 0) {
      }
    }
    DrainOutbox(w);
    if (w.index == 0 &&
        (ingest_log_ != nullptr || replicator_ != nullptr)) {
      const auto now = std::chrono::steady_clock::now();
      if (now - last_maintenance_ >=
          std::chrono::milliseconds(options_.maintenance_interval_millis)) {
        last_maintenance_ = now;
        MaintenanceSweep();
      }
    }
    if ((pollfds[0].revents & POLLIN) != 0) AcceptPending(w);
    for (size_t i = 0; i < conn_fds.size(); ++i) {
      const int fd = conn_fds[i];
      const short revents = pollfds[i + 2].revents;
      if (w.conns.find(fd) == w.conns.end()) continue;  // Closed this round.
      if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) HandleReadable(w, fd);
      if (w.conns.find(fd) == w.conns.end()) continue;
      if ((revents & POLLOUT) != 0) FlushWrites(w, fd);
    }
  }
  GracefulStop(w);
}

void StreamServer::AcceptPending(Worker& w) {
  while (true) {
    const int fd = ::accept(w.listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      FREEWAY_LOG(kWarning) << "accept failed: " << std::strerror(errno);
      return;
    }
    if (metrics_.accepted != nullptr) metrics_.accepted->Inc();
    if (w.connections != nullptr) w.connections->Inc();
    Status injected = failpoint::Check("net.accept");
    if (!injected.ok() ||
        active_connections_.load(std::memory_order_acquire) >=
            options_.max_connections) {
      if (injected.ok()) {
        FREEWAY_LOG(kWarning) << "connection limit ("
                          << options_.max_connections << ") reached";
      }
      net::CloseFd(fd);
      if (metrics_.closed != nullptr) metrics_.closed->Inc();
      continue;
    }
    if (!net::SetNonBlocking(fd, true).ok()) {
      net::CloseFd(fd);
      if (metrics_.closed != nullptr) metrics_.closed->Inc();
      continue;
    }
    // A RESULT frame follows its ACK on the same connection; with Nagle on
    // it would wait for the client's (possibly delayed, up to 40 ms) ACK of
    // the first segment.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = w.next_conn_id++;
    w.fd_by_conn_id[conn->id] = fd;
    w.conns.emplace(fd, std::move(conn));
    active_connections_.fetch_add(1, std::memory_order_acq_rel);
    if (metrics_.active != nullptr) metrics_.active->Inc();
  }
}

void StreamServer::HandleReadable(Worker& w, int fd) {
  char chunk[kReadChunk];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      ProcessBuffered(w, fd, chunk, static_cast<size_t>(n));
      if (w.conns.find(fd) == w.conns.end()) return;  // Closed while parsing.
      continue;
    }
    if (n == 0) {
      CloseConnection(w, fd);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    CloseConnection(w, fd);
    return;
  }
}

void StreamServer::ProcessBuffered(Worker& w, int fd, const char* data,
                                   size_t size) {
  Connection& conn = *w.conns.at(fd);
  if (!conn.protocol_decided) {
    conn.http_buf.insert(conn.http_buf.end(), data, data + size);
    if (conn.http_buf.size() < 4) return;
    conn.protocol_decided = true;
    conn.http = StartsWithGet(conn.http_buf);
    if (!conn.http) {
      conn.decoder.Feed(conn.http_buf.data(), conn.http_buf.size());
      conn.http_buf.clear();
      conn.http_buf.shrink_to_fit();
      ProcessFrames(w, fd);
    } else {
      HandleHttp(w, fd);
    }
    return;
  }
  if (conn.http) {
    conn.http_buf.insert(conn.http_buf.end(), data, data + size);
    HandleHttp(w, fd);
  } else {
    conn.decoder.Feed(data, size);
    ProcessFrames(w, fd);
  }
}

void StreamServer::ProcessFrames(Worker& w, int fd) {
  while (true) {
    auto it = w.conns.find(fd);
    if (it == w.conns.end()) return;
    Result<Frame> frame = it->second->decoder.Next();
    if (!frame.ok()) {
      if (frame.status().code() == StatusCode::kNotFound) return;
      // Corrupt stream: framing is unrecoverable, drop the connection.
      if (metrics_.decode_errors != nullptr) metrics_.decode_errors->Inc();
      FREEWAY_LOG(kWarning) << "closing connection " << fd << ": "
                        << frame.status();
      CloseConnection(w, fd);
      return;
    }
    // Injected network failure, checked per decoded frame rather than per
    // readable event: the recv loop above chases fast loopback peers past
    // EAGAIN, so read-event counts are timing-dependent while frame counts
    // are exact. The connection dies with this frame parsed but not yet
    // dispatched — exactly as if the peer's packets stopped arriving.
    if (!failpoint::Check("net.read").ok()) {
      CloseConnection(w, fd);
      return;
    }
    if (metrics_.frames_in != nullptr) {
      metrics_.frames_in->Inc();
      metrics_.frame_bytes->Observe(
          static_cast<double>(kFrameHeaderBytes + frame->payload.size()));
    }
    if (w.frames != nullptr) w.frames->Inc();
    HandleFrame(w, fd, *frame);
  }
}

void StreamServer::HandleFrame(Worker& w, int fd, const Frame& frame) {
  switch (frame.type) {
    case FrameType::kSubmit:
      HandleSubmit(w, fd, frame);
      return;
    case FrameType::kStatsRequest:
      QueueFrame(w, fd, EncodeStats(runtime_->Snapshot().ToJson()));
      return;
    case FrameType::kShutdown: {
      QueueFrame(w, fd, EncodeAck({0, 0}));
      if (metrics_.acks != nullptr) metrics_.acks->Inc();
      stop_requested_.store(true, std::memory_order_release);
      WakeAllWorkers();
      return;
    }
    case FrameType::kVoteRequest:
    case FrameType::kVoteResponse:
    case FrameType::kAppendEntries:
    case FrameType::kAppendResponse: {
      // Peer consensus traffic multiplexed onto the client port. Responses
      // travel back over this node's own outbound link to the sender, so
      // nothing is queued on `fd` here.
      if (replicator_ == nullptr) {
        ErrorMessage error;
        error.code = StatusCode::kFailedPrecondition;
        error.message = std::string("replication is not enabled (") +
                        FrameTypeName(frame.type) + ")";
        if (metrics_.errors_sent != nullptr) metrics_.errors_sent->Inc();
        QueueFrame(w, fd, EncodeError(error));
        return;
      }
      Result<RaftMessage> message = DecodeRaftMessage(frame);
      if (!message.ok()) {
        if (metrics_.decode_errors != nullptr) metrics_.decode_errors->Inc();
        FREEWAY_LOG(kWarning) << "closing connection " << fd
                              << ": bad raft frame: " << message.status();
        CloseConnection(w, fd);
        return;
      }
      replicator_->Deliver(std::move(*message));
      return;
    }
    default: {
      // Clients must not send server-to-client frame types.
      ErrorMessage error;
      error.code = StatusCode::kInvalidArgument;
      error.message = std::string("unexpected frame type ") +
                      FrameTypeName(frame.type);
      if (metrics_.errors_sent != nullptr) metrics_.errors_sent->Inc();
      QueueFrame(w, fd, EncodeError(error));
      return;
    }
  }
}

void StreamServer::HandleSubmit(Worker& w, int fd, const Frame& frame) {
  if (metrics_.submits != nullptr) metrics_.submits->Inc();
  Result<SubmitMessage> message = DecodeSubmit(frame);
  if (!message.ok()) {
    // The frame passed CRC but its payload is malformed — a client bug,
    // not line noise. Report it on the connection and keep serving.
    if (metrics_.decode_errors != nullptr) metrics_.decode_errors->Inc();
    ErrorMessage error;
    error.code = message.status().code();
    error.message = message.status().message();
    if (metrics_.errors_sent != nullptr) metrics_.errors_sent->Inc();
    QueueFrame(w, fd, EncodeError(error));
    return;
  }
  if (replicator_ != nullptr) {
    HandleSubmitReplicated(w, fd, std::move(*message));
    return;
  }
  const uint64_t stream_id = message->stream_id;
  const int64_t batch_index = message->batch.index;
  const bool unlabeled = !message->batch.labeled();
  // Route publication must precede admission: the drain thread may deliver
  // the result before TrySubmit even returns. It also precedes the dedup
  // check on purpose — a resend arrives on a *new* connection, and results
  // of the originally-admitted batch should follow the client there.
  RouteResultsTo(w, fd, stream_id);

  // Exactly-once admission. A tracked sequence at or below the client's
  // watermark was already admitted (its ACK died with the old connection):
  // answer it again, touch nothing. Safe without further locking because
  // one client's submits are serial by contract.
  const uint64_t client_id = message->client_id;
  const uint64_t sequence = message->sequence;
  const bool tracked = client_id != 0 && sequence != 0;
  if (tracked && dedup_.IsDuplicate(client_id, sequence)) {
    if (metrics_.duplicates != nullptr) metrics_.duplicates->Inc();
    if (metrics_.acks != nullptr) metrics_.acks->Inc();
    QueueFrame(w, fd, EncodeAck({stream_id, batch_index}));
    return;
  }

  // Log-first: the record must be durable before the watermark advances,
  // else a crash between ACK and append would ack a batch the restarted
  // server never saw. A failed append is reported as ERROR and the client
  // retries against an unadvanced watermark.
  uint64_t lsn = 0;
  if (ingest_log_ != nullptr) {
    IngestRecord record;
    record.client_id = client_id;
    record.sequence = sequence;
    record.stream_id = stream_id;
    record.tenant_id = message->tenant_id;
    record.priority = message->priority;
    record.batch = std::move(message->batch);
    Result<uint64_t> appended = ingest_log_->Append(record);
    message->batch = std::move(record.batch);
    if (!appended.ok()) {
      if (metrics_.ingest_log_errors != nullptr) {
        metrics_.ingest_log_errors->Inc();
      }
      ErrorMessage error;
      error.stream_id = stream_id;
      error.batch_index = batch_index;
      error.code = appended.status().code();
      error.message = appended.status().message();
      if (metrics_.errors_sent != nullptr) metrics_.errors_sent->Inc();
      QueueFrame(w, fd, EncodeError(error));
      return;
    }
    lsn = *appended;
    if (coverage_enabled_) {
      // The LSN exists but its admission outcome doesn't yet: keep the
      // truncation sweep from treating it as checkpoint-covered meanwhile.
      std::lock_guard<std::recursive_mutex> lock(coverage_mutex_);
      unresolved_lsns_.insert(lsn);
    }
  }
  if (tracked) dedup_.Advance(client_id, sequence);

  SubmitContext context;
  context.tenant_id = message->tenant_id;
  context.priority = static_cast<TenantPriority>(message->priority);
  Status admitted;
  if (lsn != 0 && coverage_enabled_) {
    // Admission and its coverage note share the lock so the per-shard
    // ordinal order equals the shard-queue order. TrySubmit never blocks,
    // but on a workerless global pool it drains the shard inline —
    // including a reentrant checkpoint — which is why the mutex is
    // recursive and why the entry pushed below may already be consumed.
    std::lock_guard<std::recursive_mutex> lock(coverage_mutex_);
    admitted = runtime_->TrySubmit(stream_id, std::move(message->batch),
                                   context);
    unresolved_lsns_.erase(lsn);
    highest_noted_lsn_ = std::max(highest_noted_lsn_, lsn);
    if (admitted.ok()) {
      const size_t shard = runtime_->ShardOf(stream_id);
      auto& outstanding = shard_outstanding_[shard];
      outstanding.emplace_back(++shard_admitted_[shard], lsn);
      // Inline-drain case: the batch was processed (and checkpointed)
      // inside TrySubmit, before its entry existed to be popped there.
      while (!outstanding.empty() &&
             outstanding.front().first <= shard_consumed_[shard]) {
        outstanding.pop_front();
      }
    }
  } else {
    admitted =
        runtime_->TrySubmit(stream_id, std::move(message->batch), context);
  }
  if (!admitted.ok()) {
    // The logged record will never be processed: retreat the watermark so
    // the client's retry is not swallowed as a duplicate, and append a
    // revert naming the cancelled LSN so offline replay skips it too.
    if (tracked) dedup_.Revert(client_id, sequence);
    if (lsn != 0) {
      Result<uint64_t> reverted =
          ingest_log_->AppendRevert(lsn, client_id, sequence);
      if (!reverted.ok() && metrics_.ingest_log_errors != nullptr) {
        metrics_.ingest_log_errors->Inc();
      }
      if (coverage_enabled_ && reverted.ok()) {
        // Cancelled pair: both LSNs are covered the moment they exist.
        std::lock_guard<std::recursive_mutex> lock(coverage_mutex_);
        highest_noted_lsn_ = std::max(highest_noted_lsn_, *reverted);
      }
    }
  }
  if (admitted.ok()) {
    if (unlabeled && metrics_.request_seconds != nullptr) {
      w.pending_latency[{stream_id, batch_index}] =
          std::chrono::steady_clock::now();
    }
    if (metrics_.acks != nullptr) metrics_.acks->Inc();
    QueueFrame(w, fd, EncodeAck({stream_id, batch_index}));
    return;
  }
  if (admitted.code() == StatusCode::kUnavailable) {
    // Admission control: the shard queue is full and the loop must not
    // block — reply OVERLOAD so backpressure propagates to the producer.
    if (metrics_.overloads != nullptr) metrics_.overloads->Inc();
    OverloadMessage overload;
    overload.stream_id = stream_id;
    overload.batch_index = batch_index;
    overload.retry_after_micros = options_.overload_retry_micros;
    QueueFrame(w, fd, EncodeOverload(overload));
    return;
  }
  ErrorMessage error;
  error.stream_id = stream_id;
  error.batch_index = batch_index;
  error.code = admitted.code();
  error.message = admitted.message();
  if (metrics_.errors_sent != nullptr) metrics_.errors_sent->Inc();
  QueueFrame(w, fd, EncodeError(error));
}

void StreamServer::HandleHttp(Worker& w, int fd) {
  Connection& conn = *w.conns.at(fd);
  const std::string request(conn.http_buf.begin(), conn.http_buf.end());
  if (request.find("\r\n\r\n") == std::string::npos) {
    if (conn.http_buf.size() > kMaxHttpRequest) CloseConnection(w, fd);
    return;  // Headers not complete yet.
  }
  if (metrics_.http_requests != nullptr) metrics_.http_requests->Inc();
  std::string body;
  std::string status_line;
  std::string content_type = "text/plain; version=0.0.4";
  if (request.rfind("GET /metrics", 0) == 0 && options_.metrics != nullptr) {
    body = options_.metrics->ToPrometheusText();
    status_line = "HTTP/1.1 200 OK";
  } else if (request.rfind("GET /stats", 0) == 0) {
    body = runtime_->Snapshot().ToJson();
    content_type = "application/json";
    status_line = "HTTP/1.1 200 OK";
  } else {
    body = "not found\n";
    status_line = "HTTP/1.1 404 Not Found";
  }
  std::string response = status_line + "\r\nContent-Type: " + content_type +
                         "\r\nConnection: close"
                         "\r\nContent-Length: " +
                         std::to_string(body.size()) + "\r\n\r\n" + body;
  conn.close_after_flush = true;
  QueueFrame(w, fd, std::vector<char>(response.begin(), response.end()));
}

void StreamServer::QueueFrame(Worker& w, int fd, std::vector<char> encoded) {
  auto it = w.conns.find(fd);
  if (it == w.conns.end()) return;
  Connection& conn = *it->second;
  if (!conn.http && metrics_.frames_out != nullptr) {
    metrics_.frames_out->Inc();
    metrics_.frame_bytes->Observe(static_cast<double>(encoded.size()));
  }
  conn.outbuf.insert(conn.outbuf.end(), encoded.begin(), encoded.end());
  FlushWrites(w, fd);
}

void StreamServer::FlushWrites(Worker& w, int fd) {
  auto it = w.conns.find(fd);
  if (it == w.conns.end()) return;
  Connection& conn = *it->second;
  Status injected = failpoint::Check("net.write");
  if (!injected.ok()) {
    CloseConnection(w, fd);
    return;
  }
  while (conn.out_pos < conn.outbuf.size()) {
    const ssize_t n = ::send(fd, conn.outbuf.data() + conn.out_pos,
                             conn.outbuf.size() - conn.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_pos += static_cast<size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // POLLOUT resumes.
    if (errno == EINTR) continue;
    CloseConnection(w, fd);
    return;
  }
  conn.outbuf.clear();
  conn.out_pos = 0;
  if (conn.close_after_flush) CloseConnection(w, fd);
}

void StreamServer::CloseConnection(Worker& w, int fd) {
  auto it = w.conns.find(fd);
  if (it == w.conns.end()) return;
  Connection& conn = *it->second;
  if (!conn.http && conn.decoder.buffered() > 0) {
    // The peer vanished mid-frame; the partial bytes are discarded (the
    // client re-sends unacknowledged batches on its new connection).
    if (metrics_.torn_frames != nullptr) metrics_.torn_frames->Inc();
  }
  w.fd_by_conn_id.erase(conn.id);
  for (uint64_t stream_id : conn.routed_streams) {
    auto route = w.routes.find(stream_id);
    if (route == w.routes.end() || route->second != conn.id) continue;
    w.routes.erase(route);
    // Their results can no longer be delivered, so nothing will observe
    // these admission times.
    w.pending_latency.erase(
        w.pending_latency.lower_bound({stream_id, INT64_MIN}),
        w.pending_latency.upper_bound({stream_id, INT64_MAX}));
  }
  net::CloseFd(fd);
  w.conns.erase(it);
  active_connections_.fetch_sub(1, std::memory_order_acq_rel);
  if (metrics_.closed != nullptr) metrics_.closed->Inc();
  if (metrics_.active != nullptr) metrics_.active->Dec();
}

void StreamServer::DrainOutbox(Worker& w) {
  std::vector<StreamResult> results;
  std::vector<std::pair<uint64_t, std::vector<char>>> frames;
  {
    std::lock_guard<std::mutex> lock(w.outbox_mutex);
    results.swap(w.outbox);
    frames.swap(w.frame_outbox);
  }
  for (auto& [conn_id, encoded] : frames) {
    auto target = w.fd_by_conn_id.find(conn_id);
    if (target == w.fd_by_conn_id.end()) {
      // The connection died while its entry replicated. The client resends
      // on a new connection and the watermark re-ACKs it there.
      if (metrics_.results_dropped != nullptr) metrics_.results_dropped->Inc();
      continue;
    }
    QueueFrame(w, target->second, std::move(encoded));
  }
  for (StreamResult& result : results) {
    auto route = w.routes.find(result.stream_id);
    auto target = route == w.routes.end() ? w.fd_by_conn_id.end()
                                          : w.fd_by_conn_id.find(route->second);
    if (target == w.fd_by_conn_id.end()) {
      if (metrics_.results_dropped != nullptr) {
        metrics_.results_dropped->Inc();
      }
      w.pending_latency.erase({result.stream_id, result.batch_index});
      continue;
    }
    if (metrics_.request_seconds != nullptr) {
      auto pending =
          w.pending_latency.find({result.stream_id, result.batch_index});
      if (pending != w.pending_latency.end()) {
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - pending->second;
        metrics_.request_seconds->Observe(elapsed.count());
        w.pending_latency.erase(pending);
      }
    }
    if (metrics_.results != nullptr) metrics_.results->Inc();
    QueueFrame(w, target->second, EncodeResult(result));
  }
}

void StreamServer::RouteResultsTo(Worker& w, int fd, uint64_t stream_id) {
  Connection& conn = *w.conns.at(fd);
  uint64_t& route = w.routes[stream_id];
  if (route != conn.id) {
    route = conn.id;
    conn.routed_streams.insert(stream_id);
  }
  RouteStreamTo(stream_id, w.index);
}

void StreamServer::HandleSubmitReplicated(Worker& w, int fd,
                                          SubmitMessage message) {
  const uint64_t stream_id = message.stream_id;
  const int64_t batch_index = message.batch.index;
  // Route publication still precedes everything: results (and the deferred
  // ACK, by connection id) follow the client's newest connection.
  RouteResultsTo(w, fd, stream_id);

  auto redirect = [&] {
    NotLeaderMessage reply;
    reply.stream_id = stream_id;
    reply.batch_index = batch_index;
    reply.leader_id = replicator_->leader_id();
    if (reply.leader_id != 0) {
      Result<ReplicationPeer> hint = replicator_->PeerOf(reply.leader_id);
      if (hint.ok()) {
        reply.leader_host = hint->host;
        reply.leader_port = hint->port;
      }
    }
    if (metrics_.not_leader != nullptr) metrics_.not_leader->Inc();
    QueueFrame(w, fd, EncodeNotLeader(reply));
  };
  if (!replicator_->IsLeader()) {
    redirect();
    return;
  }

  // A tracked sequence at or below the watermark was already committed and
  // applied (watermarks only advance at apply, which happens after majority
  // replication): its ACK died with the old connection, so answer again.
  const uint64_t client_id = message.client_id;
  const uint64_t sequence = message.sequence;
  const bool tracked = client_id != 0 && sequence != 0;
  if (tracked && dedup_.IsDuplicate(client_id, sequence)) {
    if (metrics_.duplicates != nullptr) metrics_.duplicates->Inc();
    if (metrics_.acks != nullptr) metrics_.acks->Inc();
    QueueFrame(w, fd, EncodeAck({stream_id, batch_index}));
    return;
  }

  // Admission gate: the propose→apply backlog is the replicated analogue of
  // a full shard queue, so it turns into OVERLOAD at the edge too.
  if (replicator_->PendingLoad() >= options_.replication.max_apply_lag) {
    if (metrics_.overloads != nullptr) metrics_.overloads->Inc();
    OverloadMessage overload;
    overload.stream_id = stream_id;
    overload.batch_index = batch_index;
    overload.retry_after_micros = options_.overload_retry_micros;
    QueueFrame(w, fd, EncodeOverload(overload));
    return;
  }

  IngestRecord record;
  record.client_id = client_id;
  record.sequence = sequence;
  record.stream_id = stream_id;
  record.tenant_id = message.tenant_id;
  record.priority = message.priority;
  record.batch = std::move(message.batch);
  Replicator::AckToken token;
  token.worker_index = w.index;
  token.conn_id = w.conns.at(fd)->id;
  token.stream_id = stream_id;
  token.batch_index = batch_index;
  token.client_id = client_id;
  token.sequence = sequence;
  Status proposed = replicator_->ProposeBatch(record, token);
  if (!proposed.ok()) {
    // Leadership moved between the check above and the propose.
    redirect();
    return;
  }
  // Deferred ACK: nothing is written now. The ack callback fires on the
  // applier thread once the entry is majority-replicated AND applied here,
  // and DeliverAck routes it back to this connection by id.
}

void StreamServer::ApplyReplicated(const ReplicatedCommand& command) {
  switch (command.kind) {
    case CommandKind::kNoop:
      return;
    case CommandKind::kBatch: {
      // The determinism contract: every node applies every committed batch
      // unconditionally, in commit order — log append, watermark advance,
      // runtime enqueue. No admission decision happens here (that was the
      // leader's propose-time gate), so the per-node ingest logs stay
      // bit-identical and reverts never occur in replicated operation.
      uint64_t lsn = 0;
      while (true) {
        Result<uint64_t> appended = ingest_log_->Append(command.record);
        if (appended.ok()) {
          lsn = *appended;
          break;
        }
        if (metrics_.ingest_log_errors != nullptr) {
          metrics_.ingest_log_errors->Inc();
        }
        if (stop_requested_.load(std::memory_order_acquire)) {
          // Dropped on the floor deliberately: the entry stays in the raft
          // log and re-applies on restart (it never reached last_lsn()).
          return;
        }
        FREEWAY_LOG(kWarning)
            << "replicated apply: ingest append failed, retrying: "
            << appended.status();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      if (command.record.client_id != 0 && command.record.sequence != 0) {
        dedup_.Advance(command.record.client_id, command.record.sequence);
      }
      const size_t shard = runtime_->ShardOf(command.record.stream_id);
      if (coverage_enabled_) {
        // Note coverage before the blocking Submit (the single applier
        // thread is the only submitter, so ordinal order still matches
        // queue order) and never hold the mutex across it: drain threads
        // take this mutex in OnShardCheckpoint, and a drain thread blocked
        // here while Submit waits for queue space would deadlock.
        std::lock_guard<std::recursive_mutex> lock(coverage_mutex_);
        shard_outstanding_[shard].emplace_back(++shard_admitted_[shard], lsn);
        highest_noted_lsn_ = std::max(highest_noted_lsn_, lsn);
      }
      SubmitContext context;
      context.tenant_id = command.record.tenant_id;
      context.priority = static_cast<TenantPriority>(command.record.priority);
      Batch batch = command.record.batch;
      Status submitted =
          runtime_->Submit(command.record.stream_id, std::move(batch),
                           context);
      if (!submitted.ok()) {
        // Only reachable when the runtime is shutting down underneath us.
        FREEWAY_LOG(kWarning)
            << "replicated apply: runtime rejected committed batch: "
            << submitted;
      }
      return;
    }
    case CommandKind::kDeadLetter:
      // The replicator already folded it into its cluster-wide DLQ view.
      return;
    case CommandKind::kTruncateMark: {
      // The leader's coverage claim, bounded by what THIS node's
      // checkpoints cover (a lagging follower must not drop history its
      // own runtime hasn't consumed yet).
      const uint64_t effective = std::min(command.truncate_lsn, CoveredLsn());
      if (effective <= truncated_lsn_.load(std::memory_order_acquire)) {
        return;
      }
      Status rotated = ingest_log_->Rotate();
      if (!rotated.ok()) {
        FREEWAY_LOG(kWarning) << "ingest log rotation failed: " << rotated;
        return;
      }
      Status truncated = ingest_log_->TruncateBefore(
          effective, options_.ingest.retention_segments);
      if (!truncated.ok()) {
        FREEWAY_LOG(kWarning) << "ingest log truncation failed: " << truncated;
        return;
      }
      truncated_lsn_.store(effective, std::memory_order_release);
      return;
    }
  }
}

void StreamServer::DeliverAck(const Replicator::AckToken& token) {
  if (token.worker_index >= workers_.size()) return;
  Worker& w = *workers_[token.worker_index];
  {
    std::lock_guard<std::mutex> lock(w.outbox_mutex);
    w.frame_outbox.emplace_back(
        token.conn_id, EncodeAck({token.stream_id, token.batch_index}));
  }
  if (metrics_.acks != nullptr) metrics_.acks->Inc();
  WakeWorker(w);
}

void StreamServer::OnShardCheckpoint(size_t shard, uint64_t consumed) {
  std::lock_guard<std::recursive_mutex> lock(coverage_mutex_);
  if (shard >= shard_outstanding_.size()) return;  // Pre-sizing seed write.
  shard_consumed_[shard] = std::max(shard_consumed_[shard], consumed);
  auto& outstanding = shard_outstanding_[shard];
  while (!outstanding.empty() &&
         outstanding.front().first <= shard_consumed_[shard]) {
    outstanding.pop_front();
  }
}

uint64_t StreamServer::CoveredLsn() {
  std::lock_guard<std::recursive_mutex> lock(coverage_mutex_);
  uint64_t lowest_pending = UINT64_MAX;
  for (const auto& outstanding : shard_outstanding_) {
    if (!outstanding.empty()) {
      lowest_pending = std::min(lowest_pending, outstanding.front().second);
    }
  }
  if (!unresolved_lsns_.empty()) {
    lowest_pending = std::min(lowest_pending, *unresolved_lsns_.begin());
  }
  if (lowest_pending == UINT64_MAX) return highest_noted_lsn_;
  return lowest_pending - 1;
}

void StreamServer::MaintenanceSweep() {
  if (replicator_ != nullptr) {
    if (!replicator_->IsLeader()) return;
    // Quarantined batches become replicated state so the dead-letter queue
    // survives the leader.
    for (DeadLetter& letter : runtime_->TakeDeadLetters()) {
      ReplicatedCommand command;
      command.kind = CommandKind::kDeadLetter;
      command.dead_letter = std::move(letter);
      Status proposed = replicator_->ProposeCommand(command);
      if (!proposed.ok()) {
        FREEWAY_LOG(kWarning) << "dead-letter replication failed: "
                              << proposed;
      }
    }
    // Truncation is itself a replicated command: every node (this one
    // included) rotates + truncates at apply, clamped to its own coverage.
    if (!coverage_enabled_) return;
    const uint64_t anchor = CoveredLsn();
    if (anchor > truncated_lsn_.load(std::memory_order_acquire)) {
      ReplicatedCommand mark;
      mark.kind = CommandKind::kTruncateMark;
      mark.truncate_lsn = anchor;
      Status proposed = replicator_->ProposeCommand(mark);
      if (!proposed.ok()) {
        FREEWAY_LOG(kWarning) << "truncate-mark proposal failed: " << proposed;
      }
    }
    return;
  }
  if (ingest_log_ == nullptr || !coverage_enabled_) return;
  const uint64_t anchor = CoveredLsn();
  if (anchor <= truncated_lsn_.load(std::memory_order_acquire)) return;
  Status rotated = ingest_log_->Rotate();
  if (!rotated.ok()) {
    FREEWAY_LOG(kWarning) << "ingest log rotation failed: " << rotated;
    return;
  }
  Status truncated = ingest_log_->TruncateBefore(
      anchor, options_.ingest.retention_segments);
  if (!truncated.ok()) {
    FREEWAY_LOG(kWarning) << "ingest log truncation failed: " << truncated;
    return;
  }
  truncated_lsn_.store(anchor, std::memory_order_release);
}

void StreamServer::GracefulStop(Worker& w) {
  // 1. Every worker stops accepting. With dup-listener sharding the
  // underlying socket only stops listening once the last dup closes, which
  // is exactly the barrier below.
  net::CloseFd(w.listen_fd);
  w.listen_fd = -1;
  accept_closed_.fetch_add(1, std::memory_order_acq_rel);

  if (w.index == 0) {
    // 2. Worker 0 coordinates: wait until no worker can accept, then
    // quiesce the runtime. Everything admitted is processed and its
    // results land in the per-worker outboxes; the other workers keep
    // servicing their outboxes and sockets below while this blocks.
    while (accept_closed_.load(std::memory_order_acquire) <
           workers_.size()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // Replication must quiesce before the runtime: the applier may be
    // blocked in a Submit that only completes while drains are running.
    // Idempotent with the owner's Stop() (a SHUTDOWN frame reaches here
    // without the owner ever calling Stop()).
    if (replicator_ != nullptr) replicator_->Stop();
    runtime_->Shutdown();
    if (ingest_log_ != nullptr && options_.ingest.truncate_at_stop) {
      // Everything admitted is now processed (and checkpointed when fault
      // tolerance is on). Rotate so the fresh head segment snapshots the
      // final watermarks, then drop the sealed history behind the anchor.
      const uint64_t anchor = ingest_log_->last_lsn();
      Status rotated = ingest_log_->Rotate();
      if (rotated.ok()) {
        Status truncated = ingest_log_->TruncateBefore(anchor);
        if (!truncated.ok()) {
          FREEWAY_LOG(kWarning)
              << "ingest log truncation failed: " << truncated;
        }
      } else {
        FREEWAY_LOG(kWarning) << "ingest log rotation failed: " << rotated;
      }
    }
    drained_.store(true, std::memory_order_release);
    WakeAllWorkers();
  } else {
    // 2'. Stay responsive (deliver results, flush replies) until worker 0
    // reports the runtime fully drained.
    std::vector<pollfd> pollfds;
    std::vector<int> fds;
    while (!drained_.load(std::memory_order_acquire)) {
      pollfds.clear();
      fds.clear();
      pollfds.push_back({w.wake_read_fd, POLLIN, 0});
      for (const auto& [fd, conn] : w.conns) {
        if (conn->out_pos < conn->outbuf.size()) {
          pollfds.push_back({fd, POLLOUT, 0});
          fds.push_back(fd);
        }
      }
      const int ready = ::poll(pollfds.data(), pollfds.size(), 20);
      if (ready < 0 && errno != EINTR) break;
      if ((pollfds[0].revents & POLLIN) != 0) {
        char drain[256];
        while (::read(w.wake_read_fd, drain, sizeof(drain)) > 0) {
        }
      }
      DrainOutbox(w);
      for (size_t i = 0; i < fds.size(); ++i) {
        if ((pollfds[i + 1].revents & (POLLOUT | POLLHUP | POLLERR)) != 0) {
          FlushWrites(w, fds[i]);
        }
      }
    }
  }

  // 3. Final result delivery + best-effort reply flush, then teardown.
  DrainOutbox(w);
  FlushAndCloseAll(w);
  const size_t exited =
      workers_exited_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (exited == workers_.size()) {
    running_.store(false, std::memory_order_release);
  }
}

void StreamServer::FlushAndCloseAll(Worker& w) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.shutdown_flush_millis);
  while (std::chrono::steady_clock::now() < deadline) {
    std::vector<pollfd> pollfds;
    std::vector<int> fds;
    for (const auto& [fd, conn] : w.conns) {
      if (conn->out_pos < conn->outbuf.size()) {
        pollfds.push_back({fd, POLLOUT, 0});
        fds.push_back(fd);
      }
    }
    if (pollfds.empty()) break;
    const int ready = ::poll(pollfds.data(), pollfds.size(), 50);
    if (ready < 0 && errno != EINTR) break;
    for (size_t i = 0; i < fds.size(); ++i) {
      if ((pollfds[i].revents & (POLLOUT | POLLHUP | POLLERR)) != 0) {
        FlushWrites(w, fds[i]);
      }
    }
  }
  // The wake pipes stay open until the destructor (late wakeups must never
  // hit a closed/reused fd).
  while (!w.conns.empty()) CloseConnection(w, w.conns.begin()->first);
}

}  // namespace freeway
