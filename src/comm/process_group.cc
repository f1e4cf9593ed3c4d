#include "comm/process_group.h"

#include <string>
#include <utility>

#include "comm/event_backend.h"
#include "comm/thread_backend.h"

namespace cannikin::comm {

namespace {

std::unique_ptr<Backend> make_backend(const GroupOptions& options) {
  switch (options.backend) {
    case BackendKind::kThread:
      return std::make_unique<ThreadBackend>(options);
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
  backend_ = make_backend(options);
}

ProcessGroup::~ProcessGroup() {
  // Safety net for error paths; the backend's own destructor performs
  // the definitive teardown (abort + join for the thread backend).
  backend_->abort();
}

RetryStats ProcessGroup::retry_stats() const { return backend_->retry_stats(); }

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

void Communicator::barrier() { group_->backend_->barrier(rank_); }

}  // namespace cannikin::comm
