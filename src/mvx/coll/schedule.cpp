#include "mvx/coll/schedule.hpp"

#include <cstring>
#include <stdexcept>

namespace ib12x::mvx::coll {

int CollSchedule::open_round(std::size_t dep_begin) {
  const int idx = static_cast<int>(rounds_.size());
  for (std::size_t k = dep_begin; k < deps_.size(); ++k) {
    if (deps_[k] < 0 || deps_[k] >= idx) {
      deps_.resize(dep_begin);
      throw std::logic_error("CollSchedule: dep on a later/unknown round");
    }
  }
  rounds_.push_back(Round{static_cast<std::uint32_t>(ops_.size()),
                          static_cast<std::uint32_t>(dep_begin)});
  return idx;
}

int CollSchedule::add_round(std::initializer_list<int> deps) {
  const std::size_t begin = deps_.size();
  deps_.insert(deps_.end(), deps.begin(), deps.end());
  return open_round(begin);
}

int CollSchedule::chain_round(int prev) {
  const std::size_t begin = deps_.size();
  if (prev >= 0) deps_.push_back(prev);
  return open_round(begin);
}

int CollSchedule::add_barrier_round() {
  const std::size_t begin = deps_.size();
  for (int r = 0; r < static_cast<int>(rounds_.size()); ++r) deps_.push_back(r);
  return open_round(begin);
}

void CollSchedule::append(int r, const CollOp& op) {
  if (r != static_cast<int>(rounds_.size()) - 1) {
    throw std::logic_error("CollSchedule: ops append to the newest round");
  }
  ops_.push_back(op);
}

void CollSchedule::isend(int r, int peer_world, int tag, const void* src, std::int64_t bytes,
                         int lane) {
  CollOp op;
  op.kind = CollOp::Kind::Isend;
  op.peer = peer_world;
  op.tag = tag;
  op.lane = lane;
  op.src = src;
  op.bytes = bytes;
  append(r, op);
}

void CollSchedule::irecv(int r, int peer_world, int tag, void* dst, std::int64_t bytes, int lane) {
  CollOp op;
  op.kind = CollOp::Kind::Irecv;
  op.peer = peer_world;
  op.tag = tag;
  op.lane = lane;
  op.dst = dst;
  op.bytes = bytes;
  append(r, op);
}

void CollSchedule::reduce_local(int r, Op redop, Datatype dt, void* inout, const void* in,
                                std::size_t count) {
  CollOp op;
  op.kind = CollOp::Kind::ReduceLocal;
  op.redop = redop;
  op.dt = dt;
  op.dst = inout;
  op.src = in;
  op.count = count;
  append(r, op);
}

void CollSchedule::copy(int r, void* dst, const void* src, std::int64_t bytes) {
  CollOp op;
  op.kind = CollOp::Kind::Copy;
  op.dst = dst;
  op.src = src;
  op.bytes = bytes;
  append(r, op);
}

void CollSchedule::cpu(int r, sim::Time t) {
  CollOp op;
  op.kind = CollOp::Kind::Cpu;
  op.cpu = t;
  append(r, op);
}

std::byte* CollSchedule::scratch(std::size_t n) {
  if (pool_ != nullptr) {
    std::byte* p = pool_->get(n);
    pooled_.emplace_back(p, n);
    return p;
  }
  scratch_.push_back(std::make_unique<std::byte[]>(n));  // value-init: zeroed
  return scratch_.back().get();
}

void CollSchedule::release_scratch() {
  for (const auto& [p, n] : pooled_) pool_->put(p, n);
  pooled_.clear();
  scratch_.clear();
}

void CollSchedule::clear() {
  release_scratch();
  rounds_.clear();
  ops_.clear();
  deps_.clear();
  on_complete = sim::InlineFunction();
  ctx = 0;
}

std::byte* ScratchPool::get(std::size_t n) {
  auto it = free_.find(n);
  if (it != free_.end() && !it->second.empty()) {
    std::byte* p = it->second.back();
    it->second.pop_back();
    std::memset(p, 0, n);  // scratch is zero-filled, reused or fresh
    return p;
  }
  blocks_.push_back(std::make_unique<std::byte[]>(n));  // value-init: zeroed
  return blocks_.back().get();
}

void ScratchPool::put(std::byte* p, std::size_t n) { free_[n].push_back(p); }

}  // namespace ib12x::mvx::coll
