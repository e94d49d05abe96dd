#include "domain/transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "util/check.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace bonsai::domain {

namespace {

// Routing header preceding every frame on a socket: src, dst, frame length.
constexpr std::size_t kRouteBytes = 16;

// Upper bound on a single routed frame; larger lengths are treated as stream
// corruption (a 63-bit length from garbage bytes must not drive a resize).
constexpr std::uint64_t kMaxFrameBytes = std::uint64_t{1} << 31;

void put_le32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void put_le64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t get_le32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

// What ended a blocking read: a clean stream end (the peer shut down in an
// orderly way, exactly at a message boundary for the caller that reads
// headers), a mid-read truncation, or a socket error. Callers turn these
// into distinct messages — "peer N closed connection" is a teardown, an
// errno string is a fault — instead of one lumped "connection lost".
enum class ReadStatus { kOk, kClosedClean, kClosedMidRead, kError };

ReadStatus read_exact(int fd, std::uint8_t* buf, std::size_t n, int* err) {
  const std::size_t want = n;
  while (n > 0) {
    const ssize_t got = ::recv(fd, buf, n, 0);
    if (got == 0) return n == want ? ReadStatus::kClosedClean : ReadStatus::kClosedMidRead;
    if (got < 0) {
      if (errno == EINTR) continue;
      if (err) *err = errno;
      return ReadStatus::kError;
    }
    buf += got;
    n -= static_cast<std::size_t>(got);
  }
  return ReadStatus::kOk;
}

// Legacy shape for the handshake paths that only need pass/fail.
bool read_exact(int fd, std::uint8_t* buf, std::size_t n) {
  return read_exact(fd, buf, n, nullptr) == ReadStatus::kOk;
}

void write_exact(int fd, const std::uint8_t* buf, std::size_t n) {
  while (n > 0) {
    const ssize_t put = ::send(fd, buf, n, MSG_NOSIGNAL);
    if (put <= 0) {
      if (put < 0 && errno == EINTR) continue;
      if (put < 0 && errno == EPIPE)
        throw std::runtime_error("peer closed connection");
      throw std::runtime_error(put < 0 ? std::strerror(errno) : "send returned 0");
    }
    buf += put;
    n -= static_cast<std::size_t>(put);
  }
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void set_recv_timeout(int fd, int seconds) {
  timeval tv{seconds, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

sockaddr_in loopback_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    throw std::runtime_error("SocketTransport: bad address: " + host);
  return addr;
}

// Bind + listen a CLOEXEC TCP socket on 127.0.0.1:`port` (0: ephemeral);
// returns the fd and writes the bound port back.
int bind_listener(std::uint16_t& port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("SocketTransport: socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = loopback_addr("127.0.0.1", port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("SocketTransport: bind to port " + std::to_string(port) +
                             " failed");
  }
  if (::listen(fd, backlog) != 0) {
    ::close(fd);
    throw std::runtime_error("SocketTransport: listen failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port = ntohs(addr.sin_port);
  return fd;
}

// Dial 127.0.0.1-style `host`:`port`, retrying for `attempts` * 100 ms so a
// peer that is a moment away from listening is reached, not declared dead.
int dial(const std::string& host, std::uint16_t port, int attempts) {
  const sockaddr_in addr = loopback_addr(host, port);
  int fd = -1;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw std::runtime_error("SocketTransport: socket() failed");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0)
      return fd;
    ::close(fd);
    fd = -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return -1;
}

// Read one routed frame (header + payload) synchronously, for the handshake
// paths that run before a reader thread exists. Throws `what` on any
// failure, including an SO_RCVTIMEO expiry.
std::vector<std::uint8_t> read_frame_sync(int fd, const char* what) {
  std::uint8_t route[kRouteBytes];
  if (!read_exact(fd, route, kRouteBytes))
    throw std::runtime_error(std::string("SocketTransport: ") + what);
  const std::uint64_t flen = get_le64(route + 8);
  if (flen > kMaxFrameBytes)
    throw std::runtime_error(std::string("SocketTransport: oversized frame while ") + what);
  std::vector<std::uint8_t> frame(static_cast<std::size_t>(flen));
  if (!read_exact(fd, frame.data(), frame.size()))
    throw std::runtime_error(std::string("SocketTransport: ") + what);
  return frame;
}

// Frame type at header bytes [6, 8) for accounting; 0 for raw payloads.
std::uint16_t peek_type(std::span<const std::uint8_t> frame) {
  return frame.size() >= wire::kHeaderBytes
             ? static_cast<std::uint16_t>(frame[6] | (std::uint16_t{frame[7]} << 8))
             : 0;
}

}  // namespace

// --- InProcTransport ---------------------------------------------------------

InProcTransport::InProcTransport(int nranks) {
  BNS_CHECK(nranks >= 1);
  mailboxes_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r)
    mailboxes_.push_back(std::make_unique<Channel<std::vector<std::uint8_t>>>());
}

void InProcTransport::post(int src, int dst, std::vector<std::uint8_t> frame) {
  (void)src;
  BNS_CHECK(dst >= 0 && dst < num_ranks());
  mailboxes_[static_cast<std::size_t>(dst)]->send(std::move(frame));
}

std::optional<std::vector<std::uint8_t>> InProcTransport::recv(int dst) {
  BNS_CHECK(dst >= 0 && dst < num_ranks());
  return mailboxes_[static_cast<std::size_t>(dst)]->recv();
}

void InProcTransport::close(int dst) {
  BNS_CHECK(dst >= 0 && dst < num_ranks());
  mailboxes_[static_cast<std::size_t>(dst)]->close();
}

// --- TrafficRecordingTransport ----------------------------------------------

namespace {

// A (src, dst, type) -> (frames, bytes) matrix as labeled counters
// <base>.frames{src=S,dst=D,type=T} and <base>.bytes{...}.
metrics::Snapshot traffic_counters(const std::string& base, const TrafficMatrix& cells) {
  metrics::Snapshot out;
  for (const auto& [key, cell] : cells) {
    const std::string label =
        "{src=" + std::to_string(std::get<0>(key)) + ",dst=" +
        std::to_string(std::get<1>(key)) + ",type=" +
        wire::frame_type_name(static_cast<wire::FrameType>(std::get<2>(key))) + "}";
    out.counters[base + ".frames" + label] = static_cast<double>(cell.first);
    out.counters[base + ".bytes" + label] = static_cast<double>(cell.second);
  }
  return out;
}

}  // namespace

void TrafficRecordingTransport::post(int src, int dst, std::vector<std::uint8_t> frame) {
  // Locally produced frames always carry a full header, but stay defensive
  // for raw test payloads.
  trace::ScopedSpan span("transport.post", src, src);
  span.set_peer(dst);
  span.set_bytes(static_cast<std::int64_t>(frame.size()));
  record(src, dst, peek_type(frame), frame.size());
  inner_.post(src, dst, std::move(frame));
}

void TrafficRecordingTransport::record(int src, int dst, std::uint16_t type,
                                       std::uint64_t bytes) {
  std::lock_guard lock(mutex_);
  auto& cell = cells_[{src, dst, type}];
  cell.first += 1;
  cell.second += bytes;
}

metrics::Snapshot TrafficRecordingTransport::take() {
  std::lock_guard lock(mutex_);
  metrics::Snapshot out = traffic_counters("transport.post", cells_);
  cells_.clear();
  return out;
}

// --- SocketTransport ---------------------------------------------------------

struct SocketTransport::Peer {
  int fd = -1;
  int rank = kCoordinatorRank;    // remote endpoint on the other end of fd
  std::uint16_t listen_port = 0;  // coordinator: the worker's announced mesh port
  std::atomic<bool> dead{false};
  std::string error;  // first failure on this link; guarded by state_mutex_
  std::mutex write_mutex;
  std::thread reader;
};

std::string SocketTransport::peer_name(int rank) const {
  if (rank == kCoordinatorRank) return "coordinator";
  return (coordinator_ ? "worker " : "peer rank ") + std::to_string(rank);
}

SocketTransport::Peer& SocketTransport::add_peer(int fd, int rank) {
  auto peer = std::make_unique<Peer>();
  peer->fd = fd;
  peer->rank = rank;
  peers_.push_back(std::move(peer));
  return *peers_.back();
}

std::unique_ptr<SocketTransport> SocketTransport::listen(std::uint16_t port, int nworkers,
                                                         SocketTopology topology) {
  BNS_CHECK(nworkers >= 1);
  auto t = std::unique_ptr<SocketTransport>(new SocketTransport());
  t->coordinator_ = true;
  t->topology_ = topology;
  t->nworkers_ = nworkers;

  // CLOEXEC: spawned worker processes must not inherit the listening socket
  // (an orphaned worker would otherwise hold the port after the coordinator
  // dies).
  t->port_ = port;
  t->listen_fd_ = bind_listener(t->port_, nworkers);
  t->peers_.resize(static_cast<std::size_t>(nworkers));
  return t;
}

void SocketTransport::accept_workers(int timeout_ms,
                                     const std::function<bool()>& keep_waiting) {
  BNS_CHECK(coordinator_);
  WallTimer deadline;
  for (int i = 0; i < nworkers_; ++i) {
    // Poll in short slices so a deadline or a died-before-connecting worker
    // aborts the wait instead of hanging in accept() forever.
    for (;;) {
      if (timeout_ms > 0 && deadline.elapsed() * 1e3 > timeout_ms)
        throw std::runtime_error("SocketTransport: timed out waiting for workers (" +
                                 std::to_string(i) + "/" + std::to_string(nworkers_) +
                                 " connected)");
      if (keep_waiting && !keep_waiting())
        throw std::runtime_error("SocketTransport: a worker exited before connecting");
      pollfd pfd{listen_fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 200);
      if (ready < 0 && errno != EINTR)
        throw std::runtime_error("SocketTransport: poll on listen socket failed");
      if (ready > 0) break;
    }
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) throw std::runtime_error("SocketTransport: accept failed");
    set_nodelay(fd);

    // The first routed frame on every worker connection is its Hello; a
    // connected-but-silent peer trips the receive timeout instead of
    // blocking the handshake forever.
    set_recv_timeout(fd, 30);
    const wire::Hello hello = wire::decode_hello(read_frame_sync(fd, "worker hello failed"));
    set_recv_timeout(fd, 0);  // back to blocking reads for the reader thread
    if (hello.rank < 0 || hello.rank >= nworkers_)
      throw std::runtime_error("SocketTransport: hello announced rank " +
                               std::to_string(hello.rank) + " outside [0, " +
                               std::to_string(nworkers_) + ")");
    if (topology_ == SocketTopology::kMesh && hello.listen_port == 0)
      throw std::runtime_error("SocketTransport: worker " + std::to_string(hello.rank) +
                               " announced no mesh listen port (star worker in a mesh "
                               "cluster?)");
    auto& slot = peers_[static_cast<std::size_t>(hello.rank)];
    if (slot) throw std::runtime_error("SocketTransport: duplicate worker rank " +
                                       std::to_string(hello.rank));
    slot = std::make_unique<Peer>();
    slot->fd = fd;
    slot->rank = hello.rank;
    slot->listen_port = hello.listen_port;
  }

  if (topology_ == SocketTopology::kMesh) {
    // Rendezvous complete: hand every worker the dialable directory before
    // any other frame (the cluster driver sends Config next).
    std::vector<wire::PeerEndpoint> dir(static_cast<std::size_t>(nworkers_));
    for (int r = 0; r < nworkers_; ++r)
      dir[static_cast<std::size_t>(r)] = {"127.0.0.1",
                                          peers_[static_cast<std::size_t>(r)]->listen_port};
    const std::vector<std::uint8_t> frame = wire::encode_peer_directory(dir);
    for (int r = 0; r < nworkers_; ++r)
      write_routed(*peers_[static_cast<std::size_t>(r)], kCoordinatorRank, r, frame);
  }
  for (auto& peer : peers_) start_reader(*peer);
}

std::unique_ptr<SocketTransport> SocketTransport::connect(const std::string& host,
                                                          std::uint16_t port, int rank) {
  BNS_CHECK(rank >= 0);
  auto t = std::unique_ptr<SocketTransport>(new SocketTransport());
  t->coordinator_ = false;
  t->topology_ = SocketTopology::kStar;
  t->local_rank_ = rank;
  t->port_ = port;

  // Brief retry window so externally-launched workers may start a moment
  // before the coordinator is listening.
  const int fd = dial(host, port, /*attempts=*/50);
  if (fd < 0)
    throw std::runtime_error("SocketTransport: cannot reach coordinator at " + host + ":" +
                             std::to_string(port));
  set_nodelay(fd);
  Peer& coord = t->add_peer(fd, kCoordinatorRank);
  t->write_routed(coord, rank, kCoordinatorRank, wire::encode_hello(rank));
  t->start_reader(coord);
  return t;
}

std::unique_ptr<SocketTransport> SocketTransport::connect_mesh(const std::string& host,
                                                               std::uint16_t port, int rank,
                                                               std::uint16_t listen_port) {
  BNS_CHECK(rank >= 0);
  auto t = std::unique_ptr<SocketTransport>(new SocketTransport());
  t->coordinator_ = false;
  t->topology_ = SocketTopology::kMesh;
  t->local_rank_ = rank;
  t->port_ = port;

  // Bind the own listener *before* announcing it: once the coordinator's
  // directory is out, any peer may dial at any moment.
  t->mesh_port_ = listen_port;
  t->listen_fd_ = bind_listener(t->mesh_port_, /*backlog=*/255);

  const int fd = dial(host, port, /*attempts=*/50);
  if (fd < 0)
    throw std::runtime_error("SocketTransport: cannot reach coordinator at " + host + ":" +
                             std::to_string(port));
  set_nodelay(fd);
  Peer& coord = t->add_peer(fd, kCoordinatorRank);
  t->write_routed(coord, rank, kCoordinatorRank, wire::encode_hello(rank, t->mesh_port_));

  // The directory is the first frame back on this link; read it here,
  // synchronously, before the reader thread takes the stream over. The
  // coordinator only sends it once *all* workers said hello, so the wait
  // covers the slowest externally-launched sibling, not just this link.
  set_recv_timeout(fd, 120);
  t->directory_ =
      wire::decode_peer_directory(read_frame_sync(fd, "coordinator sent no peer directory"));
  set_recv_timeout(fd, 0);
  t->nworkers_ = static_cast<int>(t->directory_.size());
  if (rank >= t->nworkers_)
    throw std::runtime_error("SocketTransport: rank " + std::to_string(rank) +
                             " outside the " + std::to_string(t->nworkers_) +
                             "-entry peer directory");
  t->mesh_link_.assign(static_cast<std::size_t>(t->nworkers_), nullptr);
  t->start_reader(coord);
  return t;
}

void SocketTransport::mesh_with_peers(int timeout_ms) {
  BNS_CHECK(!coordinator_ && topology_ == SocketTopology::kMesh,
                   "mesh_with_peers on a non-mesh endpoint");
  BNS_CHECK(!meshed_, "mesh already established");

  // Dial every higher-ranked peer; its listener was bound before its Hello,
  // so the connection lands in the backlog even if the peer is still busy.
  const std::size_t first_link = peers_.size();
  for (int r = local_rank_ + 1; r < nworkers_; ++r) {
    const wire::PeerEndpoint& ep = directory_[static_cast<std::size_t>(r)];
    const int fd = dial(ep.host, ep.port, /*attempts=*/10);
    if (fd < 0)
      throw std::runtime_error("SocketTransport: cannot reach mesh " + peer_name(r) +
                               " at " + ep.host + ":" + std::to_string(ep.port));
    set_nodelay(fd);
    Peer& peer = add_peer(fd, r);
    write_routed(peer, local_rank_, r, wire::encode_peer_hello(local_rank_));
    mesh_link_[static_cast<std::size_t>(r)] = &peer;
  }

  // Accept one connection from every lower-ranked peer, identified by its
  // PeerHello. A peer that never dials must produce a timed, named failure.
  WallTimer deadline;
  for (int accepted = 0; accepted < local_rank_;) {
    for (;;) {
      if (timeout_ms > 0 && deadline.elapsed() * 1e3 > timeout_ms) {
        std::string missing;
        for (int r = 0; r < local_rank_; ++r)
          if (!mesh_link_[static_cast<std::size_t>(r)])
            missing += (missing.empty() ? "" : ", ") + std::to_string(r);
        throw std::runtime_error("SocketTransport: rank " + std::to_string(local_rank_) +
                                 " timed out waiting for mesh connection(s) from rank(s) " +
                                 missing);
      }
      pollfd pfd{listen_fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 200);
      if (ready < 0 && errno != EINTR)
        throw std::runtime_error("SocketTransport: poll on mesh listener failed");
      if (ready > 0) break;
    }
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) throw std::runtime_error("SocketTransport: mesh accept failed");
    set_nodelay(fd);
    set_recv_timeout(fd, 30);
    int rank = -1;
    try {
      rank = wire::decode_peer_hello(read_frame_sync(fd, "mesh peer hello failed"));
    } catch (...) {
      ::close(fd);
      throw;
    }
    set_recv_timeout(fd, 0);
    if (rank < 0 || rank >= local_rank_ ||
        mesh_link_[static_cast<std::size_t>(rank)] != nullptr) {
      ::close(fd);
      throw std::runtime_error("SocketTransport: unexpected or duplicate mesh hello from "
                               "rank " + std::to_string(rank));
    }
    mesh_link_[static_cast<std::size_t>(rank)] = &add_peer(fd, rank);
    ++accepted;
  }

  // All pair links up: no further mesh connections are expected, so release
  // the listener and let the reader threads take the streams over.
  ::close(listen_fd_);
  listen_fd_ = -1;
  for (std::size_t i = first_link; i < peers_.size(); ++i) start_reader(*peers_[i]);
  meshed_ = true;
}

SocketTransport::~SocketTransport() {
  for (auto& peer : peers_) {
    if (peer && peer->fd >= 0) ::shutdown(peer->fd, SHUT_RDWR);
  }
  for (auto& peer : peers_) {
    if (peer && peer->reader.joinable()) peer->reader.join();
    if (peer && peer->fd >= 0) ::close(peer->fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void SocketTransport::fail_peer(Peer& peer, const std::string& reason) {
  {
    std::lock_guard lock(state_mutex_);
    if (peer.error.empty()) peer.error = reason;
  }
  peer.dead.store(true, std::memory_order_release);
  // Wake the peer's reader (and any blocked writer); the fd itself stays
  // open until the destructor so the reader never races an fd reuse.
  ::shutdown(peer.fd, SHUT_RDWR);
}

std::string SocketTransport::peer_error(const Peer& peer) const {
  std::lock_guard lock(state_mutex_);
  return peer.error;
}

void SocketTransport::close_local(const std::string& reason) {
  {
    std::lock_guard lock(state_mutex_);
    if (close_reason_.empty()) close_reason_ = reason;
  }
  inbox_.close();
}

std::string SocketTransport::close_reason() const {
  std::lock_guard lock(state_mutex_);
  return close_reason_;
}

void SocketTransport::record_routed(int src, int dst, std::uint16_t type,
                                    std::uint64_t bytes) {
  std::lock_guard lock(state_mutex_);
  auto& cell = routed_[{src, dst, type}];
  cell.first += 1;
  cell.second += bytes;
}

metrics::Snapshot SocketTransport::take_routed() {
  std::lock_guard lock(state_mutex_);
  metrics::Snapshot out = traffic_counters("transport.routed", routed_);
  routed_.clear();
  return out;
}

void SocketTransport::write_routed(Peer& peer, int src, int dst,
                                   std::span<const std::uint8_t> frame) {
  std::uint8_t route[kRouteBytes];
  put_le32(route, static_cast<std::uint32_t>(src));
  put_le32(route + 4, static_cast<std::uint32_t>(dst));
  put_le64(route + 8, frame.size());
  std::lock_guard lock(peer.write_mutex);
  if (peer.dead.load(std::memory_order_acquire))
    throw std::runtime_error("SocketTransport: " + peer_name(peer.rank) + " is down (" +
                             peer_error(peer) + ")");
  try {
    write_exact(peer.fd, route, kRouteBytes);
    write_exact(peer.fd, frame.data(), frame.size());
  } catch (const std::exception& e) {
    // Part of the routing header or payload may already be on the wire; the
    // stream can never carry another frame. Poison the peer so every later
    // post fails fast by name instead of feeding the receiver garbage.
    const std::string reason =
        "connection to " + peer_name(peer.rank) + " lost on write: " + e.what();
    fail_peer(peer, reason);
    throw std::runtime_error("SocketTransport: " + reason);
  }
}

void SocketTransport::start_reader(Peer& peer) {
  peer.reader = std::thread([this, &peer] {
    std::string reason;
    try {
      for (;;) {
        std::uint8_t route[kRouteBytes];
        int err = 0;
        ReadStatus st = read_exact(peer.fd, route, kRouteBytes, &err);
        if (st != ReadStatus::kOk) {
          reason = st == ReadStatus::kClosedClean
                       ? peer_name(peer.rank) + " closed connection"
                       : st == ReadStatus::kClosedMidRead
                             ? peer_name(peer.rank) + " closed connection mid-frame"
                             : "read from " + peer_name(peer.rank) +
                                   " failed: " + std::strerror(err);
          break;
        }
        const int src = static_cast<std::int32_t>(get_le32(route));
        const int dst = static_cast<std::int32_t>(get_le32(route + 4));
        const std::uint64_t flen = get_le64(route + 8);
        if (flen > kMaxFrameBytes) {
          reason = "oversized frame from " + peer_name(peer.rank) +
                   " (stream corruption)";
          break;
        }
        std::vector<std::uint8_t> frame(static_cast<std::size_t>(flen));
        st = read_exact(peer.fd, frame.data(), frame.size(), &err);
        if (st != ReadStatus::kOk) {
          reason = st == ReadStatus::kError
                       ? "read from " + peer_name(peer.rank) +
                             " failed: " + std::strerror(err)
                       : peer_name(peer.rank) + " closed connection mid-frame";
          break;
        }

        const int local = coordinator_ ? kCoordinatorRank : local_rank_;
        if (dst == local) {
          inbox_.send(std::move(frame));
        } else if (coordinator_ && dst >= 0 && dst < nworkers_ &&
                   peers_[static_cast<std::size_t>(dst)]) {
          record_routed(src, dst, peek_type(frame), frame.size());
          try {
            write_routed(*peers_[static_cast<std::size_t>(dst)], src, dst, frame);
          } catch (const std::exception&) {
            // The failure belongs to the *destination* link: write_routed
            // poisoned it, and its own reader (woken by the shutdown) closes
            // the coordinator mailbox. This source link is healthy — keep
            // serving it (coordinator-addressed frames, and the best-effort
            // Shutdown at teardown) instead of misattributing the error.
          }
        } else {
          reason = "misrouted frame from " + peer_name(peer.rank) + " for dst " +
                   std::to_string(dst) + " (stream corruption)";
          break;
        }
      }
    } catch (const std::exception& e) {
      reason = e.what();
    } catch (...) {
      reason = "unknown reader failure on " + peer_name(peer.rank);
    }
    fail_peer(peer, reason);
    // Losing the star link is fatal to the endpoint: close the mailbox so
    // blocked receivers fail fast. A worker's *mesh* link dying only poisons
    // that pair — the next post to it throws by name, and a mid-step loss
    // still unblinds everyone through the coordinator's cascade (the dead
    // peer's star link drops, the coordinator fails, and its teardown closes
    // every worker's star link). Keeping the mailbox open here avoids the
    // shutdown race where a peer that finished first would otherwise yank a
    // still-running worker's control stream.
    if (coordinator_ || peer.rank == kCoordinatorRank) close_local(reason);
  });
}

void SocketTransport::post(int src, int dst, std::vector<std::uint8_t> frame) {
  const int local = coordinator_ ? kCoordinatorRank : local_rank_;
  if (dst == local) {
    inbox_.send(std::move(frame));
    return;
  }
  Peer* peer = nullptr;
  if (coordinator_) {
    BNS_CHECK(dst >= 0 && dst < nworkers_);
    peer = peers_[static_cast<std::size_t>(dst)].get();
    BNS_CHECK(peer != nullptr, "post to a worker that never connected");
  } else if (topology_ == SocketTopology::kMesh && dst != kCoordinatorRank) {
    // Worker↔worker frames ride the pair's own socket; only coordinator-
    // addressed frames keep the star link.
    BNS_CHECK(dst >= 0 && dst < nworkers_, "post to an unknown rank");
    peer = mesh_link_[static_cast<std::size_t>(dst)];
    if (peer == nullptr)
      throw std::runtime_error("SocketTransport: no mesh link to " + peer_name(dst) +
                               " (mesh_with_peers not completed?)");
  } else {
    // Star worker: everything leaves through the coordinator, which routes.
    peer = peers_[0].get();
  }
  write_routed(*peer, src, dst, frame);
}

bool SocketTransport::post_best_effort(int src, int dst,
                                       std::vector<std::uint8_t> frame) noexcept {
  try {
    post(src, dst, std::move(frame));
    return true;
  } catch (...) {
    return false;
  }
}

std::optional<std::vector<std::uint8_t>> SocketTransport::recv(int dst) {
  const int local = coordinator_ ? kCoordinatorRank : local_rank_;
  BNS_CHECK(dst == local, "recv on a non-local endpoint");
  return inbox_.recv();
}

void SocketTransport::close(int dst) {
  const int local = coordinator_ ? kCoordinatorRank : local_rank_;
  BNS_CHECK(dst == local, "close on a non-local endpoint");
  close_local("closed locally");
}

}  // namespace bonsai::domain
