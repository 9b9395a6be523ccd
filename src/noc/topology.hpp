// 2D-mesh topology and dimension-ordered (XY) routing.
//
// "Many modern MPSoCs are equipped with Networks-on-Chips (NoCs) featuring
// wormhole-switching and multistage arbitration" (Sec. V). The mesh with XY
// routing is the canonical deadlock-free substrate the admission-control
// overlay of [16], [17] is built on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace pap::noc {

using NodeId = std::uint32_t;

enum class Direction : std::uint8_t { kLocal, kEast, kWest, kNorth, kSouth };
constexpr int kNumPorts = 5;

/// A unidirectional link, identified by its source router and exit port.
struct LinkId {
  NodeId router;
  Direction out;
  friend bool operator==(const LinkId&, const LinkId&) = default;
};

class Mesh2D {
 public:
  Mesh2D(int cols, int rows) : cols_(cols), rows_(rows) {
    PAP_CHECK(cols >= 1 && rows >= 1);
  }

  int cols() const { return cols_; }
  int rows() const { return rows_; }
  int num_nodes() const { return cols_ * rows_; }

  NodeId node(int x, int y) const {
    PAP_CHECK(x >= 0 && x < cols_ && y >= 0 && y < rows_);
    return static_cast<NodeId>(y * cols_ + x);
  }
  int x_of(NodeId n) const { return static_cast<int>(n) % cols_; }
  int y_of(NodeId n) const { return static_cast<int>(n) / cols_; }

  NodeId neighbor(NodeId n, Direction d) const;

  /// Dimension traversal order. XY is the default; YX gives every
  /// src/dst pair a second, link-disjoint-in-the-middle minimal route —
  /// the "route computation" degree of freedom the admission controller
  /// exploits (Sec. IV). Real wormhole NoCs place XY and YX flows on
  /// separate virtual channels to stay deadlock-free; the channel model
  /// here already has VC capacity semantics (see router.hpp).
  enum class RouteOrder : std::uint8_t { kXY, kYX };

  /// Minimal dimension-ordered route: sequence of output ports from
  /// `src`'s router to `dst`'s, ending with kLocal (ejection).
  std::vector<Direction> route(NodeId src, NodeId dst,
                               RouteOrder order = RouteOrder::kXY) const;

  /// Number of router-to-router hops (same for XY and YX).
  int hop_count(NodeId src, NodeId dst) const;

 private:
  int cols_;
  int rows_;
};

}  // namespace pap::noc
