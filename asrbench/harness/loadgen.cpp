#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <deque>
#include <stdexcept>

#include "common.h"

namespace asrbench {

namespace {

constexpr std::size_t kConnections = 16;
constexpr std::size_t kRedialStride = 4;   // every 4th connection redials...
constexpr std::size_t kRedialAfter = 8;    // ...after this many requests
constexpr std::int64_t kDrainNs = 1'000'000'000;

enum class State { kConnecting, kOpen, kDraining, kClosed };

struct Conn {
  int fd = -1;
  State state = State::kClosed;
  bool redials = false;
  std::size_t sent = 0;         ///< requests sent since the last dial
  std::string out;              ///< bytes not yet written
  std::size_t out_off = 0;
  std::deque<std::pair<std::size_t, bool>> inflight;  ///< (request index, text rail), in send order
  std::string in;
  std::int64_t dial_ns = 0;
  bool first_reply_pending = false;
  bool want_write = false;
};

class Generator {
 public:
  Generator(const Schedule& schedule, std::uint16_t port, Tracer& tracer)
      : schedule_(schedule), count_(schedule.due_ns.size()), port_(port), tracer_(tracer) {
    epoll_ = epoll_create1(EPOLL_CLOEXEC);
    if (epoll_ < 0) throw std::runtime_error("epoll_create1 failed");
    result_.records.resize(count_);
    result_.reply_digest.assign(count_, 0);
    result_.reply_ok.assign(count_, false);
    conns_.resize(kConnections);
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;
  ~Generator() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    ::close(epoll_);
  }

  LoadResult run() {
    const double cpu_start = thread_cpu_s();
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      conns_[i].redials = i % kRedialStride == 0;
      dial(i, /*timed=*/false);
    }
    // Let the first dials settle before the schedule starts.
    const std::int64_t settle = now_ns() + 200'000'000;
    while (now_ns() < settle && !all_open()) poll_once(1'000'000);

    result_.start_ns = now_ns();
    for (std::size_t i = 0; i < count_; ++i) {
      result_.records[i].due_ns = result_.start_ns + schedule_.due_ns[i];
    }
    const std::int64_t last_due = count_ == 0 ? result_.start_ns : result_.records.back().due_ns;
    const std::int64_t give_up = last_due + kDrainNs;
    while (true) {
      const std::int64_t now = now_ns();
      send_due(now);
      if (next_ == count_ && inflight_ == 0) break;
      if (now >= give_up) break;
      std::int64_t wait = 1'000'000;
      if (next_ < count_) {
        wait = std::clamp<std::int64_t>(result_.records[next_].due_ns - now, 0, 1'000'000);
      }
      poll_once(wait);
      redial_drained();
    }
    // Whatever is still in flight was never answered (done_ns stays -1).
    result_.wall_s = static_cast<double>(now_ns() - result_.start_ns) / 1e9;
    result_.cpu_s = thread_cpu_s() - cpu_start;
    // Sizes, not capacities: the pages past a vector's size are never touched.
    result_.held_bytes = count_ * (sizeof(std::int64_t) + sizeof(RequestRecord) +
                                   sizeof(std::uint64_t)) +
                         count_ / 8;
    return std::move(result_);
  }

 private:
  bool all_open() const {
    return std::all_of(conns_.begin(), conns_.end(),
                       [](const Conn& c) { return c.state == State::kOpen; });
  }

  void dial(std::size_t index, bool timed) {
    Conn& c = conns_[index];
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (c.fd < 0) throw std::runtime_error("socket failed");
    int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    c.dial_ns = now_ns();
    c.first_reply_pending = timed;
    c.sent = 0;
    c.in.clear();
    c.out.clear();
    c.out_off = 0;
    const int rc = ::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    c.state = (rc == 0) ? State::kOpen : State::kConnecting;
    if (rc != 0 && errno != EINPROGRESS) throw std::runtime_error("connect failed");
    c.want_write = c.state == State::kConnecting;
    epoll_event ev{};
    ev.events = EPOLLIN | (c.want_write ? EPOLLOUT : 0u);
    ev.data.u64 = index;
    ::epoll_ctl(epoll_, EPOLL_CTL_ADD, c.fd, &ev);
  }

  void close_conn(std::size_t index) {
    Conn& c = conns_[index];
    if (c.fd >= 0) {
      ::epoll_ctl(epoll_, EPOLL_CTL_DEL, c.fd, nullptr);
      ::close(c.fd);
    }
    c.fd = -1;
    c.state = State::kClosed;
  }

  /// The server dropped or refused the connection: everything in flight on
  /// it is lost.  Dial again so the schedule keeps its connection count.
  void drop(std::size_t index) {
    Conn& c = conns_[index];
    inflight_ -= c.inflight.size();
    c.inflight.clear();
    ++result_.dropped_connections;
    close_conn(index);
    dial(index, false);
  }

  void set_want_write(std::size_t index, bool want) {
    Conn& c = conns_[index];
    if (c.want_write == want) return;
    c.want_write = want;
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.u64 = index;
    ::epoll_ctl(epoll_, EPOLL_CTL_MOD, c.fd, &ev);
  }

  /// Queue every request that is due, then write each connection's queue
  /// once, so requests that fall due together reach the server together.
  void send_due(std::int64_t now) {
    std::vector<std::size_t>& touched = touched_;
    touched.clear();
    while (next_ < count_ && result_.records[next_].due_ns <= now) {
      const std::size_t index = pick();
      if (index == conns_.size()) break;  // no connection can take it yet
      Conn& c = conns_[index];
      const Wire wire = schedule_.next_wire();
      if (c.out.size() == c.out_off) touched.push_back(index);
      c.out.append(wire.bytes);
      c.inflight.push_back({next_, wire.text});
      result_.records[next_].sent_ns = now_ns();
      ++inflight_;
      ++next_;
      if (c.redials && ++c.sent >= kRedialAfter) c.state = State::kDraining;
    }
    for (const std::size_t index : touched) {
      if (conns_[index].fd >= 0 && !conns_[index].want_write) flush(index);
    }
  }

  std::size_t pick() {
    for (std::size_t tries = 0; tries < conns_.size(); ++tries) {
      const std::size_t index = rr_++ % conns_.size();
      if (conns_[index].state == State::kOpen) return index;
    }
    return conns_.size();
  }

  void flush(std::size_t index) {
    Conn& c = conns_[index];
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        set_want_write(index, true);
        return;
      }
      if (n < 0 && errno == EINTR) continue;
      drop(index);
      return;
    }
    c.out.clear();
    c.out_off = 0;
    if (c.state != State::kConnecting) set_want_write(index, false);
  }

  void poll_once(std::int64_t timeout_ns) {
    epoll_event events[64];
    const timespec timeout{static_cast<time_t>(timeout_ns / 1'000'000'000),
                           static_cast<long>(timeout_ns % 1'000'000'000)};
    const int n = ::epoll_pwait2(epoll_, events, 64, &timeout, nullptr);
    for (int i = 0; i < n; ++i) {
      const std::size_t index = events[i].data.u64;
      Conn& c = conns_[index];
      if (c.fd < 0) continue;
      if (c.state == State::kConnecting && (events[i].events & (EPOLLOUT | EPOLLERR))) {
        int err = 0;
        socklen_t len = sizeof err;
        ::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0) {
          drop(index);
          continue;
        }
        c.state = State::kOpen;
        set_want_write(index, false);
      }
      if (events[i].events & EPOLLOUT) flush(index);
      if (c.fd >= 0 && (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR))) receive(index);
    }
  }

  void receive(std::size_t index) {
    Conn& c = conns_[index];
    char buf[65536];
    while (true) {
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
      if (n > 0) {
        c.in.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      if (parse(index)) drop(index);  // EOF or error
      return;
    }
    parse(index);
  }

  /// Consume every complete reply at the front of the connection's input.
  /// Returns false when the connection was dropped on a malformed reply.
  bool parse(std::size_t index) {
    Conn& c = conns_[index];
    std::size_t pos = 0;
    while (!c.inflight.empty()) {
      const auto [req, text] = c.inflight.front();
      std::string_view body;
      bool ok = false;
      if (text) {
        const std::size_t nl = c.in.find('\n', pos);
        if (nl == std::string::npos) break;
        body = std::string_view(c.in).substr(pos, nl - pos);
        ok = body.starts_with("OK");
        pos = nl + 1;
      } else {
        if (c.in.size() - pos < 5) break;
        if (static_cast<unsigned char>(c.in[pos]) != 0x01) {
          // Not a frame: a shed line or garbage.  The connection is lost.
          drop(index);
          return false;
        }
        std::uint32_t len = 0;  // little-endian on the wire
        for (int b = 3; b >= 0; --b) {
          len = (len << 8) | static_cast<unsigned char>(c.in[pos + 1 + b]);
        }
        if (c.in.size() - pos - 5 < len) break;
        body = std::string_view(c.in).substr(pos + 5, len);
        ok = !body.empty() && body[0] == 0;
        pos += 5 + len;
      }
      const std::int64_t done = now_ns();
      RequestRecord& record = result_.records[req];
      record.done_ns = done;
      result_.reply_digest[req] = digest(body);
      result_.reply_ok[req] = ok;
      if (tracer_.enabled()) tracer_.record("loadgen.request", record.sent_ns, done, 0, schedule_.first_id + req);
      if (c.first_reply_pending) {
        result_.connect_us.push_back(static_cast<double>(done - c.dial_ns) / 1e3);
        c.first_reply_pending = false;
      }
      c.inflight.pop_front();
      --inflight_;
    }
    c.in.erase(0, pos);
    return true;
  }

  void redial_drained() {
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      if (c.state == State::kDraining && c.inflight.empty() && c.out.empty()) {
        close_conn(i);
        dial(i, /*timed=*/true);
      }
    }
  }

  const Schedule& schedule_;
  std::size_t count_;
  std::uint16_t port_;
  Tracer& tracer_;
  int epoll_ = -1;
  std::vector<Conn> conns_;
  LoadResult result_;
  std::size_t next_ = 0;
  std::size_t inflight_ = 0;
  std::size_t rr_ = 0;
  std::vector<std::size_t> touched_;  ///< connections send_due queued bytes on
};

}  // namespace

LoadResult run_load(const Schedule& schedule, std::uint16_t port, Tracer& tracer) {
  Generator generator(schedule, port, tracer);
  return generator.run();
}

}  // namespace asrbench
