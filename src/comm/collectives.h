// Collective operations over a ProcessGroup.
//
// ring_all_reduce implements the bandwidth-optimal ring algorithm
// (Patarasuk & Yuan) that the paper's communication model is built on:
// a reduce-scatter phase of (n-1) steps followed by an all-gather phase
// of (n-1) steps, each moving 1/n of the buffer per step.
//
// Every collective comes in two forms:
//   * async_* returns immediately with a Work handle and hands the call
//     to the group's comm::Backend, which runs the algorithm's one
//     coroutine body (transport.h, bodies in collectives.cc): on the
//     rank's comm progress thread (thread backend) or in virtual time
//     (event backend). Buffers passed by span/pointer must stay alive
//     and untouched until the Work completes.
//   * the blocking form is a thin wrapper, `async_*(...)->wait()`.
//
// Async operations on one rank execute in submission order; every rank
// must submit the same collective sequence (matching tags keep
// concurrent collectives, e.g. the per-bucket gradient all-reduces,
// from interleaving payloads). Never call a blocking collective from
// inside a submitted op -- it would wait on its own progress thread.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "comm/process_group.h"
#include "comm/work.h"

namespace cannikin::comm {

/// Nonblocking in-place sum-all-reduce over all ranks (ring algorithm).
/// Every rank must pass a buffer of identical size.
WorkPtr async_ring_all_reduce(Communicator comm, std::span<double> data,
                              std::uint64_t tag);

/// Nonblocking in-place sum-all-reduce along a binomial tree (reduce
/// to rank 0, then broadcast back down): O(n) messages total vs the
/// ring's O(n^2), the only affordable shape at thousands of ranks.
/// Unlike the ring it is not bandwidth-optimal -- rank 0's links carry
/// the whole buffer log2(n) times -- so prefer the ring at small n.
WorkPtr async_tree_all_reduce(Communicator comm, std::span<double> data,
                              std::uint64_t tag);

/// Nonblocking weighted all-reduce: computes sum_i weight_i * data_i on
/// every rank. Used by Cannikin's proportional gradient aggregation
/// (Eq. 9): pass weight = b_i / B. Implemented by pre-scaling (inside
/// the op, behind the rank's earlier ops) then ring-all-reducing.
WorkPtr async_weighted_ring_all_reduce(Communicator comm,
                                       std::span<double> data, double weight,
                                       std::uint64_t tag);

/// Nonblocking broadcast of `*data` from `root` along a binomial tree
/// (O(log n) rounds instead of root-sends-to-all). Non-root ranks'
/// vectors are resized to the root's payload. Throws CommError at the
/// call for a root outside [0, size).
WorkPtr async_broadcast(Communicator comm, std::vector<double>* data,
                        int root, std::uint64_t tag);

/// Nonblocking gather of each rank's vector on every rank, concatenated
/// in rank order into `*out`. Per-rank contributions may differ in size.
WorkPtr async_all_gather(Communicator comm, const std::vector<double>* data,
                         std::vector<double>* out, std::uint64_t tag);

/// Nonblocking sum-all-reduce of the scalar at `*value`.
WorkPtr async_all_reduce_scalar(Communicator comm, double* value,
                                std::uint64_t tag);

/// In-place sum-all-reduce over all ranks using the ring algorithm.
void ring_all_reduce(Communicator& comm, std::span<double> data,
                     std::uint64_t tag);

/// In-place sum-all-reduce along a binomial tree (see async form).
void tree_all_reduce(Communicator& comm, std::span<double> data,
                     std::uint64_t tag);

/// In-place weighted all-reduce (see async form).
void weighted_ring_all_reduce(Communicator& comm, std::span<double> data,
                              double weight, std::uint64_t tag);

/// Broadcast `data` from `root` to all ranks (binomial tree).
void broadcast(Communicator& comm, std::vector<double>& data, int root,
               std::uint64_t tag);

/// Gathers each rank's vector on every rank, concatenated in rank order.
std::vector<double> all_gather(Communicator& comm,
                               const std::vector<double>& data,
                               std::uint64_t tag);

/// All-reduce of a single scalar (sum); convenience for aggregating
/// per-node statistics such as |g_i|^2 terms.
double all_reduce_scalar(Communicator& comm, double value, std::uint64_t tag);

}  // namespace cannikin::comm
