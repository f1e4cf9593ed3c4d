#include "comm/process_group.h"

#include <string>
#include <utility>

#include "comm/event_backend.h"
#include "comm/thread_backend.h"

namespace cannikin::comm {

namespace {

std::unique_ptr<Backend> make_backend(const GroupOptions& options,
                                      ProcessGroup* group) {
  switch (options.backend) {
    case BackendKind::kThread:
      return std::make_unique<ThreadBackend>(options, group);
    case BackendKind::kEvent:
      return std::make_unique<EventBackend>(options);
  }
  throw CommError("ProcessGroup: unknown backend kind");
}

}  // namespace

ProcessGroup::ProcessGroup(int size, double timeout_seconds)
    : ProcessGroup(GroupOptions{size, timeout_seconds, BackendKind::kThread,
                                sim::FabricModel{}, sim::RetryPolicy{}}) {}

ProcessGroup::ProcessGroup(const GroupOptions& options)
    : size_(options.size) {
  if (size_ <= 0) throw CommError("ProcessGroup: size must be positive");
  tag_allocators_.resize(static_cast<std::size_t>(size_));
  backend_ = make_backend(options, this);
}

ProcessGroup::~ProcessGroup() {
  // Safety net for error paths; the backend's own destructor performs
  // the definitive teardown (abort + join for the thread backend).
  backend_->abort();
}

void ProcessGroup::set_timeout(double timeout_seconds) {
  backend_->set_timeout(timeout_seconds);
}

double ProcessGroup::timeout() const { return backend_->timeout(); }

void ProcessGroup::set_fabric(const sim::FabricModel& fabric) {
  backend_->set_fabric(fabric);
}

void ProcessGroup::set_retry(const sim::RetryPolicy& retry) {
  backend_->set_retry(retry);
}

RetryStats ProcessGroup::retry_stats() const { return backend_->retry_stats(); }

bool ProcessGroup::reachable(int a, int b) const {
  if (a < 0 || a >= size_ || b < 0 || b >= size_) return false;
  return backend_->reachable(a, b);
}

std::vector<int> ProcessGroup::reachable_ranks(int from) const {
  std::vector<int> out;
  if (from < 0 || from >= size_) return out;
  out.reserve(static_cast<std::size_t>(size_));
  for (int r = 0; r < size_; ++r) {
    if (r == from || backend_->reachable(from, r)) out.push_back(r);
  }
  return out;
}

void ProcessGroup::set_scope(obs::Scope scope) {
  scope_ = scope;
  backend_->set_scope(scope);
}

void ProcessGroup::abort() { backend_->abort(); }

bool ProcessGroup::aborted() const { return backend_->aborted(); }

Communicator ProcessGroup::communicator(int rank) {
  if (rank < 0 || rank >= size_) throw CommError("communicator: bad rank");
  return Communicator(this, rank);
}

TagAllocator& ProcessGroup::tags(int rank) {
  if (rank < 0 || rank >= size_) throw CommError("tags: bad rank");
  return tag_allocators_[static_cast<std::size_t>(rank)];
}

EventBackend* ProcessGroup::event_backend() {
  return backend_->kind() == BackendKind::kEvent
             ? static_cast<EventBackend*>(backend_.get())
             : nullptr;
}

void ProcessGroup::send(int src, int dst, std::uint64_t tag, Payload payload,
                        const char* op) {
  if (dst < 0 || dst >= size_) {
    throw CommError(std::string(op) + ": bad destination rank " +
                    std::to_string(dst));
  }
  backend_->send(src, dst, tag, std::move(payload), op);
}

Payload ProcessGroup::recv(int dst, int src, std::uint64_t tag,
                           const char* op) {
  if (src < 0 || src >= size_) {
    throw CommError(std::string(op) + ": bad source rank " +
                    std::to_string(src));
  }
  return backend_->recv(dst, src, tag, op);
}

void Communicator::send(int dst, std::uint64_t tag, Payload payload,
                        const char* op) {
  group_->send(rank_, dst, tag, std::move(payload), op);
}

Payload Communicator::recv(int src, std::uint64_t tag, const char* op) {
  return group_->recv(rank_, src, tag, op);
}

WorkPtr Communicator::submit(std::function<void()> op, const char* op_name,
                             int tag) {
  return group_->backend_->submit(rank_, std::move(op), op_name, tag);
}

void Communicator::barrier() { group_->backend_->barrier(rank_); }

}  // namespace cannikin::comm
