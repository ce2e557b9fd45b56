#include "loadgen.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <ctime>

#include "common.h"
#include "net/socket.h"

namespace stablebench {

namespace net = stabletext::net;
using stabletext::Status;

LoadGenerator::~LoadGenerator() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

void LoadGenerator::Problem(const std::string& what) {
  if (result_.problems.size() < 10) result_.problems.push_back(what);
}

Status LoadGenerator::Connect() {
  conns_.resize(2 + kOpenConns);
  for (Conn& c : conns_) {
    auto fd = net::ConnectTcp("127.0.0.1", plan_.port);
    if (!fd.ok()) return fd.status();
    c.fd = fd.value();
  }
  // Register the standing queries on the subscriber connection and wait
  // for every SUBSCRIBED before the measured phase starts.
  Conn& sub = conns_[0];
  std::map<uint64_t, size_t> request_to_index;
  for (size_t i = 0; i < plan_.subscriptions.size(); ++i) {
    const uint64_t id = next_request_++;
    request_to_index[id] = i;
    const std::string frame =
        net::EncodeFrame(net::MsgType::kSubscribe, id,
                         net::EncodeQueryBody(plan_.subscriptions[i], 0));
    size_t off = 0;
    while (off < frame.size()) {
      const net::IoOutcome io =
          net::WriteSome(sub.fd, frame.data() + off, frame.size() - off);
      if (!io.ok) return Status::IOError("subscribe: send failed");
      off += static_cast<size_t>(io.n);
    }
  }
  result_.subscription_topk.resize(plan_.subscriptions.size());
  while (subscription_index_.size() < plan_.subscriptions.size()) {
    ST_RETURN_IF_ERROR(net::WaitReadable(sub.fd, 10000));
    char buf[4096];
    const net::IoOutcome io = net::ReadSome(sub.fd, buf, sizeof(buf));
    if (!io.ok || io.n == 0) return Status::IOError("subscribe: no reply");
    sub.reader.Feed(buf, static_cast<size_t>(io.n));
    net::Frame frame;
    while (sub.reader.Next(&frame).ok()) {
      uint64_t sid = 0;
      if (frame.type != net::MsgType::kSubscribed ||
          !net::DecodeU64Body(frame.body, &sid).ok() ||
          request_to_index.count(frame.request_id) == 0) {
        return Status::Internal("subscribe: unexpected reply");
      }
      subscription_index_[sid] = request_to_index[frame.request_id];
    }
  }
  for (Conn& c : conns_) ST_RETURN_IF_ERROR(net::SetNonBlocking(c.fd));
  return Status::OK();
}

void LoadGenerator::Send(size_t conn, net::MsgType type, uint64_t id,
                         const std::string& body) {
  conns_[conn].out += net::EncodeFrame(type, id, body);
  Flush(&conns_[conn]);
}

void LoadGenerator::Flush(Conn* c) {
  while (c->out_off < c->out.size()) {
    const net::IoOutcome io = net::WriteSome(
        c->fd, c->out.data() + c->out_off, c->out.size() - c->out_off);
    if (!io.ok) {
      Problem("send failed");
      c->out.clear();
      c->out_off = 0;
      return;
    }
    if (io.would_block) return;
    c->out_off += static_cast<size_t>(io.n);
  }
  c->out.clear();
  c->out_off = 0;
}

void LoadGenerator::SendQuery(size_t conn, uint32_t query, int64_t due,
                              bool open) {
  const uint64_t id = next_request_++;
  pending_[id] = Pending{query, due, open, conn};
  if (open) {
    ++result_.open_attempted;
  } else {
    ++result_.closed_attempted;
    conns_[conn].closed_busy = true;
  }
  Send(conn, net::MsgType::kQuery, id,
       net::EncodeQueryBody((*plan_.population)[query], 0));
}

void LoadGenerator::OnFrame(const net::Frame& frame, int64_t now) {
  if (frame.type == net::MsgType::kDelta) {
    net::WireDelta delta;
    auto it = subscription_index_.end();
    if (!net::DecodeDeltaBody(frame.body, &delta).ok() ||
        (it = subscription_index_.find(delta.subscription_id)) ==
            subscription_index_.end()) {
      ++result_.deltas_unexpected;
      Problem("undecodable DELTA");
      return;
    }
    const size_t index = it->second;
    if (delta.epoch < plan_.first_epoch || delta.epoch > plan_.last_epoch ||
        seen_delta_[{index, delta.epoch}]++ != 0) {
      ++result_.deltas_unexpected;
      Problem("unexpected DELTA for epoch " + std::to_string(delta.epoch));
      return;
    }
    ++result_.deltas_received;
    if (!net::ApplyDelta(&result_.subscription_topk[index], delta).ok()) {
      Problem("DELTA does not apply");
    }
    int64_t& done = result_.delta_done_ns[delta.epoch];
    done = std::max(done, now);
    return;
  }
  if (frame.type == net::MsgType::kBye) return;
  auto it = pending_.find(frame.request_id);
  if (it == pending_.end()) {
    Problem("reply to an unknown request");
    return;
  }
  const Pending p = it->second;
  pending_.erase(it);
  if (!p.open) conns_[p.conn].closed_busy = false;
  switch (frame.type) {
    case net::MsgType::kResult: {
      net::WireResult wire;
      if (!net::DecodeResultBody(frame.body, &wire).ok()) {
        ++result_.errors;
        Problem("undecodable RESULT");
        return;
      }
      ++result_.ok;
      if (p.open) {
        result_.open_latency_ms.push_back(NsToMs(now - p.due_ns));
      } else {
        const int64_t w = (now - plan_.start_ns) / kWindowNs;
        if (w >= 0 && w < static_cast<int64_t>(closed_done_.size())) {
          ++closed_done_[w];
        }
      }
      const size_t stride = p.open ? kSampleEvery : kSampleEvery * 32;
      if ((p.open ? open_replies_++ : closed_replies_++) % stride == 0) {
        result_.samples.push_back(SampledReply{p.query, std::move(wire)});
      }
      return;
    }
    case net::MsgType::kRetry:
      ++result_.retries;
      Problem("RETRY");
      return;
    case net::MsgType::kError: {
      Status s;
      (void)net::DecodeErrorBody(frame.body, &s);
      ++result_.errors;
      Problem("ERROR " + s.ToString());
      return;
    }
    default:
      ++result_.errors;
      Problem("unexpected reply type");
  }
}

void LoadGenerator::Run() {
  const std::vector<uint32_t>& seq = *plan_.sequence;
  const int64_t interval_ns =
      plan_.rate_qps > 0 ? static_cast<int64_t>(1e9 / plan_.rate_qps) : 0;
  const size_t n_open =
      interval_ns > 0
          ? static_cast<size_t>((plan_.end_ns - plan_.start_ns) / interval_ns)
          : 0;
  const uint64_t epochs = plan_.last_epoch >= plan_.first_epoch
                              ? plan_.last_epoch - plan_.first_epoch + 1
                              : 0;
  result_.deltas_expected = epochs * plan_.subscriptions.size();
  const int64_t deadline = plan_.end_ns + kDrainNs;
  constexpr size_t kClosed = 1;
  // Whole windows only: a partial last window is not counted.
  closed_done_.assign((plan_.end_ns - plan_.start_ns) / kWindowNs, 0);
  size_t next_open = 0;
  std::vector<pollfd> pfds(conns_.size());
  for (;;) {
    int64_t now = NowNs();
    while (next_open < n_open) {
      const int64_t due =
          plan_.start_ns + static_cast<int64_t>(next_open) * interval_ns;
      if (due > now) break;
      SendQuery(2 + next_open % kOpenConns, seq[next_seq_++ % seq.size()],
                due, /*open=*/true);
      result_.send_lag_ms.push_back(NsToMs(now - due));
      ++next_open;
    }
    if (now >= plan_.start_ns && now < plan_.end_ns &&
        !conns_[kClosed].closed_busy) {
      SendQuery(kClosed, seq[next_seq_++ % seq.size()], now, /*open=*/false);
    }
    const bool sending_done = next_open >= n_open && now >= plan_.end_ns;
    if (sending_done && pending_.empty() &&
        result_.deltas_received >= result_.deltas_expected) {
      break;
    }
    if (now >= deadline) break;

    int64_t wake = deadline;
    if (next_open < n_open) {
      wake = plan_.start_ns + static_cast<int64_t>(next_open) * interval_ns;
    } else if (now < plan_.end_ns) {
      wake = plan_.end_ns;
    }
    const int64_t wait_ns =
        std::clamp<int64_t>(wake - now, 0, 50'000'000);
    for (size_t c = 0; c < conns_.size(); ++c) {
      pfds[c].fd = conns_[c].fd;
      pfds[c].events = POLLIN | (conns_[c].out.empty() ? 0 : POLLOUT);
      pfds[c].revents = 0;
    }
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) continue;
    now = NowNs();
    for (size_t c = 0; c < conns_.size(); ++c) {
      if (pfds[c].revents & POLLOUT) Flush(&conns_[c]);
      if (!(pfds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      char buf[65536];
      for (;;) {
        const net::IoOutcome io = net::ReadSome(conns_[c].fd, buf,
                                                sizeof(buf));
        if (io.would_block) break;
        if (!io.ok || io.n == 0) {
          Problem("connection closed by the server");
          ::close(conns_[c].fd);
          conns_[c].fd = -1;
          break;
        }
        conns_[c].reader.Feed(buf, static_cast<size_t>(io.n));
      }
      net::Frame frame;
      Status s;
      while ((s = conns_[c].reader.Next(&frame)).ok()) {
        OnFrame(frame, now);
      }
      if (s.code() != stabletext::StatusCode::kNotFound) Problem("torn frame stream");
    }
  }

  result_.timeouts = pending_.size();
  if (!pending_.empty()) Problem("queries unanswered at the deadline");
  for (size_t i = 0; i < plan_.subscriptions.size(); ++i) {
    for (uint64_t e = plan_.first_epoch; e <= plan_.last_epoch; ++e) {
      if (seen_delta_.count({i, e}) == 0) ++result_.deltas_missing;
    }
  }
  if (result_.deltas_missing > 0) Problem("DELTAs missing");
  for (const uint64_t n : closed_done_) {
    result_.window_qps.push_back(static_cast<double>(n) * 1e9 /
                                 static_cast<double>(kWindowNs));
  }
}

}  // namespace stablebench
