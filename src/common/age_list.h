// Intrusive age order for time-driven reclamation.
//
// A sweep that reclaims state idle past a timeout should cost what it
// reclaims, not what is alive. AgeList threads the nodes of an
// std::unordered_map (node addresses survive rehashing) oldest-first by a
// timestamp, so the sweep pops from the oldest end while that node is due
// and stops at the first one that is not.
//
// Touching a node re-links it at its stamp's position. Every user stamps
// with its engine's monotone clock, which puts that position at the newest
// end: a touch is O(1). A stamp older than the newest node walks back to
// its sorted slot instead of breaking the order, so the order holds even
// for callers that feed out-of-order times.
#pragma once

namespace vids::common {

/// The links a listed node carries (inside its mapped value).
template <typename Node>
struct AgeLinks {
  Node* older = nullptr;
  Node* newer = nullptr;
};

/// `Access` supplies `static AgeLinks<Node>& Links(Node&)` and
/// `static auto Stamp(const Node&)` (any totally ordered value).
template <typename Node, typename Access>
class AgeList {
 public:
  Node* oldest() const { return oldest_; }

  /// Links an unlisted node by its current stamp.
  void Insert(Node& node) {
    Node* older = newest_;
    while (older != nullptr && Access::Stamp(node) < Access::Stamp(*older)) {
      older = Access::Links(*older).older;
    }
    Node* newer = older != nullptr ? Access::Links(*older).newer : oldest_;
    Access::Links(node) = {older, newer};
    (older != nullptr ? Access::Links(*older).newer : oldest_) = &node;
    (newer != nullptr ? Access::Links(*newer).older : newest_) = &node;
  }

  /// Re-sorts a listed node after its stamp changed.
  void Touch(Node& node) {
    Node* older = Access::Links(node).older;
    if (&node == newest_ &&
        (older == nullptr || !(Access::Stamp(node) < Access::Stamp(*older)))) {
      return;
    }
    Unlink(node);
    Insert(node);
  }

  /// Removes a listed node; call before erasing it from its map.
  void Unlink(Node& node) {
    AgeLinks<Node>& links = Access::Links(node);
    (links.older != nullptr ? Access::Links(*links.older).newer : oldest_) =
        links.newer;
    (links.newer != nullptr ? Access::Links(*links.newer).older : newest_) =
        links.older;
    links = {};
  }

 private:
  Node* oldest_ = nullptr;
  Node* newest_ = nullptr;
};

}  // namespace vids::common
