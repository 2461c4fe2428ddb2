#include "perfbench/loadgen.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>

#include "net/socket_util.h"

namespace perfbench {

using freeway::Frame;
using freeway::FrameType;

namespace {

/// Lead time before the first due event, so request 0 is not born late.
constexpr int64_t kLeadNanos = 2'000'000;
/// Upper bound on one poll() sleep; keeps the stall/deadline checks live.
constexpr int64_t kMaxSleepNanos = 20'000'000;
/// How long after the last due time (or the closed window) replies may
/// still arrive before missing ones count as failed.
constexpr int64_t kDrainNanos = 10'000'000'000;

}  // namespace

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Generator::Generator(const freeway::GeneratedScenario* tape,
                     std::vector<int> fds)
    : tape_(tape) {
  conns_.resize(fds.size());
  for (size_t i = 0; i < fds.size(); ++i) {
    conns_[i].fd = fds[i];
    freeway::net::SetNonBlocking(fds[i], true).CheckOk();
  }
}

Generator::~Generator() {
  for (Conn& conn : conns_) freeway::net::CloseFd(conn.fd);
}

PhaseReport Generator::Run(const PhaseOptions& options,
                           const ResultSink& on_result) {
  PhaseReport report;
  closed_loop_ = !options.open_loop;
  streams_.clear();
  stream_index_.clear();
  ready_.clear();
  retrying_.clear();
  window_open_ = true;
  phase_start_ns_ = NowNanos();
  report.start_ns = phase_start_ns_;

  // Requests in tape order; streams get connections round-robin in order
  // of first appearance, and keep them for the whole phase.
  for (const freeway::ScenarioEvent& ev : tape_->events) {
    Request r;
    r.base_index = ev.base_index;
    r.stream_id = ev.stream_id + options.stream_offset;
    r.tenant_id = ev.tenant_id;
    r.priority = static_cast<uint8_t>(ev.priority);
    r.labeled = ev.training;
    r.rows = tape_->batches[ev.base_index].size();
    r.client_id = r.stream_id + 1;
    r.due_ns = phase_start_ns_ + kLeadNanos +
               static_cast<int64_t>(ev.arrival_micros) * 1000;
    auto [it, inserted] = stream_index_.emplace(r.stream_id, streams_.size());
    if (inserted) {
      Stream s;
      s.stream_id = r.stream_id;
      s.conn = streams_.size() % conns_.size();
      streams_.push_back(std::move(s));
    }
    streams_[it->second].tape.push_back(report.requests.size());
    report.requests.push_back(r);
  }
  const size_t n = report.requests.size();
  const int64_t last_due = n == 0 ? phase_start_ns_ : report.requests.back().due_ns;
  window_end_ns_ =
      closed_loop_ ? phase_start_ns_ +
                         static_cast<int64_t>(options.closed_seconds * 1e9)
                   : LLONG_MAX;
  const int64_t drain_deadline =
      (closed_loop_ ? window_end_ns_ : last_due) + kDrainNanos;
  const bool stall = options.stall_seconds > 0.0;
  const int64_t stall_on =
      phase_start_ns_ + static_cast<int64_t>(options.stall_at_seconds * 1e9);
  const int64_t stall_nanos = static_cast<int64_t>(options.stall_seconds * 1e9);
  bool paused = false;

  size_t released = 0;
  size_t waiting = 0;  // Released but not yet sent.
  resolved_ = 0;
  if (closed_loop_) {
    // Each stream works through its own part of the tape, and starts over
    // on it (fresh requests, continuing sequences) until the window closes.
    for (Request& r : report.requests) {
      r.released_ns = phase_start_ns_;
      streams_[stream_index_[r.stream_id]].pending.push_back(&r);
    }
    released = n;
    for (size_t s = 0; s < streams_.size(); ++s) ready_.push_back(s);
  }

  std::vector<pollfd> pollfds(conns_.size());
  while (!broken_) {
    int64_t now = NowNanos();
    if (stall && !paused && report.stall_start_ns < 0 && now >= stall_on) {
      options.pause();
      paused = true;
      report.stall_start_ns = NowNanos();
    }
    if (paused && now >= report.stall_start_ns + stall_nanos) {
      options.resume();
      paused = false;
      report.stall_end_ns = NowNanos();
    }
    while (!closed_loop_ && released < n &&
           report.requests[released].due_ns <= now) {
      Request& r = report.requests[released++];
      r.released_ns = now;
      Stream& s = streams_[stream_index_[r.stream_id]];
      s.pending.push_back(&r);
      if (s.in_flight == nullptr) ready_.push_back(stream_index_[r.stream_id]);
      report.backlog_max = std::max(report.backlog_max, ++waiting);
    }
    if (closed_loop_ && window_open_ && now >= window_end_ns_) {
      // The window closed: batches never sent are not attempted.
      window_open_ = false;
      for (Stream& s : streams_) {
        resolved_ += s.pending.size();
        s.pending.clear();
      }
    }
    for (size_t i = 0; i < retrying_.size();) {
      Stream& s = streams_[retrying_[i]];
      if (s.retry_at_ns <= now) {
        s.retry_at_ns = -1;
        Send(s, s.in_flight, now, &report);
        retrying_[i] = retrying_.back();
        retrying_.pop_back();
      } else {
        ++i;
      }
    }
    while (!ready_.empty()) {
      Stream& s = streams_[ready_.back()];
      ready_.pop_back();
      if (s.in_flight != nullptr) continue;
      // A stream starts over only once every RESULT of its last round is
      // in, so no (stream, batch) key is ever awaited twice.
      if (s.pending.empty() && closed_loop_ && window_open_ &&
          s.awaiting_results == 0) {
        for (size_t i : s.tape) {
          Request again = report.requests[i];
          again.sequence = 0;
          again.sent_ns = again.ack_ns = again.result_ns = -1;
          again.released_ns = now;
          again.overloads = again.acks = 0;
          again.failed = false;
          report.requests.push_back(again);
          s.pending.push_back(&report.requests.back());
        }
      }
      if (s.pending.empty()) continue;
      Request* r = s.pending.front();
      s.pending.pop_front();
      if (!closed_loop_) --waiting;
      Send(s, r, now, &report);
    }
    for (Conn& conn : conns_) {
      if (!Flush(conn)) broken_ = true;
    }
    if (released == n && resolved_ == report.requests.size() && !paused &&
        !(closed_loop_ && window_open_)) {
      break;
    }
    if (now > drain_deadline && !paused) break;

    int64_t wake = drain_deadline;
    if (!closed_loop_ && released < n) {
      wake = std::min(wake, report.requests[released].due_ns);
    }
    if (closed_loop_ && window_open_) wake = std::min(wake, window_end_ns_);
    for (size_t s : retrying_) wake = std::min(wake, streams_[s].retry_at_ns);
    if (stall && !paused && report.stall_start_ns < 0) {
      wake = std::min(wake, stall_on);
    }
    if (paused) wake = std::min(wake, report.stall_start_ns + stall_nanos);
    const int64_t sleep = std::clamp<int64_t>(wake - NowNanos(), 0,
                                              kMaxSleepNanos);
    for (size_t i = 0; i < conns_.size(); ++i) {
      pollfds[i].fd = conns_[i].fd;
      pollfds[i].events = POLLIN;
      if (conns_[i].out_pos < conns_[i].out.size()) {
        pollfds[i].events |= POLLOUT;
      }
      pollfds[i].revents = 0;
    }
    timespec ts{static_cast<time_t>(sleep / 1'000'000'000),
                static_cast<long>(sleep % 1'000'000'000)};
    const int ready = ::ppoll(pollfds.data(), pollfds.size(), &ts, nullptr);
    if (ready <= 0) continue;
    for (size_t i = 0; i < conns_.size(); ++i) {
      if ((pollfds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
        ReadAll(conns_[i], &report, on_result);
      }
    }
  }

  // Whatever is still open now is lost: an unlabeled batch without its
  // RESULT, a labeled batch never ACKed, an open-loop batch never sent.
  for (Request& r : report.requests) {
    if (r.failed) continue;
    const bool done = r.labeled ? r.ack_ns >= 0
                                : (r.ack_ns >= 0 && r.result_ns >= 0);
    const bool attempted = !closed_loop_ || r.sent_ns >= 0;
    if (!done && attempted) r.failed = true;
  }
  for (auto it = awaiting_result_.begin(); it != awaiting_result_.end();) {
    expired_.insert(it->first);
    it = awaiting_result_.erase(it);
  }
  streams_.clear();
  stream_index_.clear();
  report.end_ns = NowNanos();
  report.window_seconds = options.closed_seconds;
  return report;
}

void Generator::Send(Stream& stream, Request* request, int64_t now,
                     PhaseReport* report) {
  if (request->sequence == 0) request->sequence = stream.next_sequence++;
  if (request->sent_ns < 0) request->sent_ns = now;
  const freeway::Batch& base = tape_->batches[request->base_index];
  freeway::SubmitMessage message;
  message.stream_id = request->stream_id;
  message.client_id = request->client_id;
  message.sequence = request->sequence;
  message.tenant_id = request->tenant_id;
  message.priority = request->priority;
  message.batch = request->labeled ? base : freeway::UnlabeledCopy(base);
  const std::vector<char> frame = freeway::EncodeSubmit(message);
  Conn& conn = conns_[stream.conn];
  conn.out.insert(conn.out.end(), frame.begin(), frame.end());
  report->bytes_sent += frame.size();
  ++report->submits_sent;
  stream.in_flight = request;
  if (!request->labeled) {
    awaiting_result_[{request->stream_id, base.index}] = request;
    ++stream.awaiting_results;
  }
  if (!Flush(conn)) broken_ = true;
}

bool Generator::Flush(Conn& conn) {
  while (conn.out_pos < conn.out.size()) {
    const ssize_t sent = ::send(conn.fd, conn.out.data() + conn.out_pos,
                                conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
    if (sent > 0) {
      conn.out_pos += static_cast<size_t>(sent);
      continue;
    }
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (sent < 0 && errno == EINTR) continue;
    return false;
  }
  conn.out.clear();
  conn.out_pos = 0;
  return true;
}

void Generator::ReadAll(Conn& conn, PhaseReport* report,
                        const ResultSink& on_result) {
  char chunk[64 * 1024];
  while (true) {
    const ssize_t got = ::recv(conn.fd, chunk, sizeof(chunk), 0);
    if (got == 0) {
      broken_ = true;
      return;
    }
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) broken_ = true;
      return;
    }
    // Every frame completed by this read arrived now.
    const int64_t now = NowNanos();
    const int one = 1;
    ::setsockopt(conn.fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
    conn.decoder.Feed(chunk, static_cast<size_t>(got));
    while (true) {
      freeway::Result<Frame> frame = conn.decoder.Next();
      if (!frame.ok()) {
        if (frame.status().code() != freeway::StatusCode::kNotFound) {
          broken_ = true;
        }
        break;
      }
      OnFrame(*frame, now, report, on_result);
    }
  }
}

Request* Generator::InFlight(uint64_t stream_id, int64_t batch_index) {
  auto it = stream_index_.find(stream_id);
  if (it == stream_index_.end()) return nullptr;
  Stream& s = streams_[it->second];
  if (s.in_flight == nullptr || s.retry_at_ns >= 0) return nullptr;
  if (tape_->batches[s.in_flight->base_index].index != batch_index) {
    return nullptr;
  }
  return s.in_flight;
}

void Generator::StopAwaiting(const Request& request) {
  const size_t erased = awaiting_result_.erase(
      {request.stream_id, tape_->batches[request.base_index].index});
  Stream& stream = streams_[stream_index_[request.stream_id]];
  if (erased > 0 && --stream.awaiting_results == 0 && closed_loop_ &&
      window_open_ && stream.in_flight == nullptr) {
    ready_.push_back(stream_index_[request.stream_id]);
  }
}

void Generator::Finish(Stream& stream) {
  stream.in_flight = nullptr;
  // Closed loop: an unlabeled batch is in flight until its RESULT, not just
  // its ACK; StopAwaiting frees the stream then. Sending on the ACK alone
  // would queue a stream's whole tape and measure OVERLOAD handling.
  if (closed_loop_ && stream.awaiting_results > 0) return;
  if (!stream.pending.empty() || (closed_loop_ && window_open_)) {
    ready_.push_back(stream_index_[stream.stream_id]);
  }
}

void Generator::OnFrame(const Frame& frame, int64_t now, PhaseReport* report,
                        const ResultSink& on_result) {
  switch (frame.type) {
    case FrameType::kAck: {
      auto ack = freeway::DecodeAck(frame);
      Request* r = ack.ok() ? InFlight(ack->stream_id, ack->batch_index)
                            : nullptr;
      if (r == nullptr) {
        ++report->unmatched_replies;
        return;
      }
      ++r->acks;
      r->ack_ns = now;
      if (r->labeled || r->result_ns >= 0) ++resolved_;
      Finish(streams_[stream_index_[r->stream_id]]);
      return;
    }
    case FrameType::kOverload: {
      auto overload = freeway::DecodeOverload(frame);
      Request* r = overload.ok()
                       ? InFlight(overload->stream_id, overload->batch_index)
                       : nullptr;
      if (r == nullptr) {
        ++report->unmatched_replies;
        return;
      }
      ++report->overloads;
      ++r->overloads;
      Stream& s = streams_[stream_index_[r->stream_id]];
      if (r->labeled) {
        // Training data is retried after the server's advice, with the
        // same sequence: the refused admission reverted the watermark.
        s.retry_at_ns =
            now + std::max<int64_t>(overload->retry_after_micros, 100) * 1000;
        retrying_.push_back(stream_index_[r->stream_id]);
        return;
      }
      r->failed = true;
      StopAwaiting(*r);
      ++resolved_;
      Finish(s);
      return;
    }
    case FrameType::kError:
    case FrameType::kNotLeader: {
      uint64_t stream_id = 0;
      int64_t batch_index = 0;
      if (frame.type == FrameType::kError) {
        ++report->errors;
        auto error = freeway::DecodeError(frame);
        if (error.ok()) {
          stream_id = error->stream_id;
          batch_index = error->batch_index;
        }
      } else {
        ++report->not_leader;
        auto redirect = freeway::DecodeNotLeader(frame);
        if (redirect.ok()) {
          stream_id = redirect->stream_id;
          batch_index = redirect->batch_index;
        }
      }
      Request* r = InFlight(stream_id, batch_index);
      if (r == nullptr) {
        ++report->unmatched_replies;
        return;
      }
      r->failed = true;
      if (!r->labeled) StopAwaiting(*r);
      ++resolved_;
      Finish(streams_[stream_index_[r->stream_id]]);
      return;
    }
    case FrameType::kResult: {
      auto result = freeway::DecodeResult(frame);
      if (!result.ok()) {
        ++report->unmatched_results;
        return;
      }
      const std::pair<uint64_t, int64_t> key{result->stream_id,
                                             result->batch_index};
      auto it = awaiting_result_.find(key);
      if (it == awaiting_result_.end()) {
        if (expired_.count(key) == 0) ++report->unmatched_results;
        return;
      }
      Request* r = it->second;
      StopAwaiting(*r);
      if (result->report.predictions.size() != r->rows) {
        ++report->bad_result_rows;
      }
      r->result_ns = now;
      if (r->acks > 0) ++resolved_;
      on_result(*r, *result);
      return;
    }
    default:
      ++report->unmatched_replies;
      return;
  }
}

}  // namespace perfbench
