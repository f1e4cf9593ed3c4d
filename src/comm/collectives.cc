#include "comm/collectives.h"

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>

#include "comm/transport.h"

namespace cannikin::comm {

const char* algorithm_name(CollectiveCall::Algorithm algorithm) {
  static constexpr const char* kNames[] = {"ring_all_reduce", "tree_all_reduce",
                                           "broadcast", "all_gather"};
  return kNames[static_cast<std::size_t>(algorithm)];
}

struct Collective::promise_type {
  /// The frame lives in the rank's FrameBuffer, which keeps it.
  static void* operator new(std::size_t size, Transport& transport,
                            const CollectiveCall&) {
    FrameBuffer& frames = transport.frames_;
    if (frames.size < size) {
      frames = {std::make_unique_for_overwrite<std::byte[]>(size), size};
    }
    return frames.bytes.get();
  }
  static void operator delete(void*, std::size_t) noexcept {}

  Collective get_return_object() {
    return Collective(
        std::coroutine_handle<promise_type>::from_promise(*this));
  }
  std::suspend_always initial_suspend() noexcept { return {}; }
  std::suspend_always final_suspend() noexcept { return {}; }
  void return_void() noexcept {}
  void unhandled_exception() { throw; }
};

namespace {

using Algorithm = CollectiveCall::Algorithm;

WorkPtr run(Communicator& comm, CollectiveCall call) {
  return comm.backend().run_collective(comm.rank(), std::move(call));
}

// Every body's first statement: a collective of an aborted group fails
// before it touches the fabric, even one that would never send (a
// one-rank group).
void check_live(const Transport& t, const CollectiveCall& call) {
  if (!t.aborted()) return;
  throw CommAbortedError(std::string(algorithm_name(call.algorithm)) +
                         ": process group aborted (rank=" +
                         std::to_string(t.rank()) + ")");
}

/// The i-th (mod n) of the ring's n contiguous chunks of `data`, whose
/// lengths differ by at most one.
std::span<double> ring_segment(std::span<double> data, int n, int i) {
  const auto chunk = static_cast<std::size_t>((i % n + n) % n);
  const std::size_t base = data.size() / static_cast<std::size_t>(n);
  const std::size_t extra = data.size() % static_cast<std::size_t>(n);
  return data.subspan(chunk * base + std::min(chunk, extra),
                      base + (chunk < extra ? 1 : 0));
}

// The bandwidth-optimal ring (Patarasuk & Yuan) that the paper's
// communication model describes: a reduce-scatter of n-1 steps, then an
// all-gather of n-1 steps, each moving 1/n of the buffer. Wire tags are
// mangled per phase: tag*2, then tag*2+1.
Collective ring_all_reduce(Transport& t, const CollectiveCall& call) {
  check_live(t, call);
  const std::span<double> data = call.data;
  if (call.weight != 1.0) {
    for (double& v : data) v *= call.weight;
  }
  const int n = t.size();
  const int rank = t.rank();
  const int next = (rank + 1) % n;
  const int prev = (rank + n - 1) % n;

  // Reduce-scatter: after step s, rank r holds the partial sum of
  // segment (r - s - 1) mod n across ranks r-s-1..r.
  for (int step = 0; step < n - 1; ++step) {
    t.send(next, call.tag * 2,
           t.payload_of(ring_segment(data, n, rank - step)));
    Payload& incoming = co_await t.recv(prev, call.tag * 2);
    const std::span<double> mine = ring_segment(data, n, rank - step - 1);
    for (std::size_t i = 0; i < mine.size(); ++i) mine[i] += incoming[i];
    t.recycle(std::move(incoming));
  }
  // All-gather: circulate the fully reduced segments.
  for (int step = 0; step < n - 1; ++step) {
    t.send(next, call.tag * 2 + 1,
           t.payload_of(ring_segment(data, n, rank + 1 - step)));
    Payload& incoming = co_await t.recv(prev, call.tag * 2 + 1);
    std::copy(incoming.begin(), incoming.end(),
              ring_segment(data, n, rank - step).begin());
    t.recycle(std::move(incoming));
  }
}

// Reduce to rank 0 along a binomial tree, then broadcast the sum back
// down the same tree. Wire tags: tag*2 reduce, tag*2+1 broadcast.
Collective tree_all_reduce(Transport& t, const CollectiveCall& call) {
  check_live(t, call);
  const std::span<double> data = call.data;
  const int n = t.size();
  const int rank = t.rank();

  // Each rank adds its children's sums in increasing mask order, then
  // sends to its parent rank - mask, mask being its lowest set bit.
  // Rank 0 leaves the loop with mask = the first power of two >= n.
  int mask = 1;
  for (; mask < n; mask <<= 1) {
    if (rank & mask) {
      t.send(rank - mask, call.tag * 2, t.payload_of(data));
      break;
    }
    if (rank + mask < n) {
      Payload& incoming = co_await t.recv(rank + mask, call.tag * 2);
      for (std::size_t i = 0; i < data.size(); ++i) data[i] += incoming[i];
      t.recycle(std::move(incoming));
    }
  }
  if (rank != 0) {
    Payload& incoming = co_await t.recv(rank - mask, call.tag * 2 + 1);
    std::copy(incoming.begin(), incoming.end(), data.begin());
    t.recycle(std::move(incoming));
  }
  for (mask >>= 1; mask > 0; mask >>= 1) {
    if (rank + mask < n) {
      t.send(rank + mask, call.tag * 2 + 1, t.payload_of(data));
    }
  }
}

// Binomial tree rooted (virtually) at `root`: round k halves the
// uninformed set, so the broadcast takes ceil(log2 n) rounds instead of
// the root sending n-1 copies.
Collective broadcast(Transport& t, const CollectiveCall& call) {
  check_live(t, call);
  std::vector<double>& data = *call.vector;
  const int n = t.size();
  const int root = call.root;
  const int relative = (t.rank() - root + n) % n;
  int mask = 1;
  for (; mask < n; mask <<= 1) {
    if (relative & mask) {
      Payload& incoming =
          co_await t.recv((relative - mask + root) % n, call.tag);
      data.assign(incoming.begin(), incoming.end());
      t.recycle(std::move(incoming));
      break;
    }
  }
  for (mask >>= 1; mask > 0; mask >>= 1) {
    if (relative + mask < n) {
      t.send((relative + mask + root) % n, call.tag, t.payload_of(data));
    }
  }
}

// Ring circulation: at step s each rank forwards the part it received
// at step s-1 (its own at step 0) and receives rank (r - s - 1)'s part.
Collective all_gather(Transport& t, const CollectiveCall& call) {
  check_live(t, call);
  const int n = t.size();
  const int rank = t.rank();
  const int next = (rank + 1) % n;
  const int prev = (rank + n - 1) % n;
  std::vector<Payload> parts(static_cast<std::size_t>(n));
  parts[static_cast<std::size_t>(rank)] = t.payload_of(*call.input);
  for (int step = 0; step < n - 1; ++step) {
    const auto forward = static_cast<std::size_t>((rank - step + n) % n);
    const auto origin =
        static_cast<std::size_t>((rank - step - 1 + 2 * n) % n);
    t.send(next, call.tag, t.payload_of(parts[forward]));
    parts[origin] = std::move(co_await t.recv(prev, call.tag));
  }
  std::vector<double>& out = *call.vector;
  out.clear();
  for (Payload& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
    t.recycle(std::move(part));
  }
}

}  // namespace

Collective collective_body(Transport& transport, const CollectiveCall& call) {
  switch (call.algorithm) {
    case Algorithm::kRingAllReduce:
      return ring_all_reduce(transport, call);
    case Algorithm::kTreeAllReduce:
      return tree_all_reduce(transport, call);
    case Algorithm::kBroadcast:
      return broadcast(transport, call);
    case Algorithm::kAllGather:
      return all_gather(transport, call);
  }
  throw CommError("collective_body: unknown algorithm");
}

WorkPtr async_ring_all_reduce(Communicator comm, std::span<double> data,
                              std::uint64_t tag) {
  return run(comm, {.algorithm = Algorithm::kRingAllReduce, .tag = tag,
                    .op_name = "all_reduce", .data = data});
}

WorkPtr async_tree_all_reduce(Communicator comm, std::span<double> data,
                              std::uint64_t tag) {
  return run(comm, {.algorithm = Algorithm::kTreeAllReduce, .tag = tag,
                    .op_name = "tree_all_reduce", .data = data});
}

WorkPtr async_weighted_ring_all_reduce(Communicator comm,
                                       std::span<double> data, double weight,
                                       std::uint64_t tag) {
  return run(comm, {.algorithm = Algorithm::kRingAllReduce, .tag = tag,
                    .op_name = "weighted_all_reduce", .data = data,
                    .weight = weight});
}

WorkPtr async_broadcast(Communicator comm, std::vector<double>* data,
                        int root, std::uint64_t tag) {
  if (root < 0 || root >= comm.size()) throw CommError("broadcast: bad root");
  return run(comm, {.algorithm = Algorithm::kBroadcast, .tag = tag,
                    .op_name = "broadcast", .vector = data, .root = root});
}

WorkPtr async_all_gather(Communicator comm, const std::vector<double>* data,
                         std::vector<double>* out, std::uint64_t tag) {
  return run(comm, {.algorithm = Algorithm::kAllGather, .tag = tag,
                    .op_name = "all_gather", .vector = out, .input = data});
}

WorkPtr async_all_reduce_scalar(Communicator comm, double* value,
                                std::uint64_t tag) {
  return run(comm, {.algorithm = Algorithm::kRingAllReduce, .tag = tag,
                    .op_name = "all_reduce_scalar",
                    .data = std::span<double>(value, 1)});
}

void ring_all_reduce(Communicator& comm, std::span<double> data,
                     std::uint64_t tag) {
  async_ring_all_reduce(comm, data, tag)->wait();
}

void tree_all_reduce(Communicator& comm, std::span<double> data,
                     std::uint64_t tag) {
  async_tree_all_reduce(comm, data, tag)->wait();
}

void weighted_ring_all_reduce(Communicator& comm, std::span<double> data,
                              double weight, std::uint64_t tag) {
  async_weighted_ring_all_reduce(comm, data, weight, tag)->wait();
}

void broadcast(Communicator& comm, std::vector<double>& data, int root,
               std::uint64_t tag) {
  async_broadcast(comm, &data, root, tag)->wait();
}

std::vector<double> all_gather(Communicator& comm,
                               const std::vector<double>& data,
                               std::uint64_t tag) {
  std::vector<double> out;
  async_all_gather(comm, &data, &out, tag)->wait();
  return out;
}

double all_reduce_scalar(Communicator& comm, double value, std::uint64_t tag) {
  async_all_reduce_scalar(comm, &value, tag)->wait();
  return value;
}

}  // namespace cannikin::comm
