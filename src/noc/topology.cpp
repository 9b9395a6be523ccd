#include "noc/topology.hpp"

#include <cstdlib>

namespace pap::noc {

NodeId Mesh2D::neighbor(NodeId n, Direction d) const {
  const int x = x_of(n);
  const int y = y_of(n);
  switch (d) {
    case Direction::kEast:
      return node(x + 1, y);
    case Direction::kWest:
      return node(x - 1, y);
    case Direction::kNorth:
      return node(x, y + 1);
    case Direction::kSouth:
      return node(x, y - 1);
    case Direction::kLocal:
      return n;
  }
  PAP_UNREACHABLE("bad Direction");
}

std::vector<Direction> Mesh2D::route(NodeId src, NodeId dst,
                                     RouteOrder order) const {
  std::vector<Direction> out;
  int x = x_of(src);
  int y = y_of(src);
  const int dx = x_of(dst);
  const int dy = y_of(dst);
  const auto walk_x = [&] {
    while (x != dx) {
      out.push_back(x < dx ? Direction::kEast : Direction::kWest);
      x += x < dx ? 1 : -1;
    }
  };
  const auto walk_y = [&] {
    while (y != dy) {
      out.push_back(y < dy ? Direction::kNorth : Direction::kSouth);
      y += y < dy ? 1 : -1;
    }
  };
  if (order == RouteOrder::kXY) {
    walk_x();
    walk_y();
  } else {
    walk_y();
    walk_x();
  }
  out.push_back(Direction::kLocal);
  return out;
}

int Mesh2D::hop_count(NodeId src, NodeId dst) const {
  return std::abs(x_of(src) - x_of(dst)) + std::abs(y_of(src) - y_of(dst));
}

}  // namespace pap::noc
