#include "xml/document.h"

#include <algorithm>

#include "util/check.h"

namespace viewjoin::xml {

Document Document::Clone() const {
  Document copy;
  copy.labels_ = labels_;
  copy.tags_ = tags_;
  copy.parents_ = parents_;
  copy.first_child_ = first_child_;
  copy.last_child_ = last_child_;
  copy.next_sibling_ = next_sibling_;
  copy.deleted_ = deleted_;
  copy.tag_names_ = tag_names_;
  copy.tag_ids_ = tag_ids_;
  copy.nodes_by_tag_ = nodes_by_tag_;
  copy.open_stack_ = open_stack_;
  copy.next_pos_ = next_pos_;
  copy.deleted_count_ = deleted_count_;
  copy.revision_ = revision_;
  return copy;
}

TagId Document::InternTag(std::string_view name) {
  auto it = tag_ids_.find(std::string(name));
  if (it != tag_ids_.end()) return it->second;
  TagId id = static_cast<TagId>(tag_names_.size());
  tag_names_.emplace_back(name);
  tag_ids_.emplace(std::string(name), id);
  nodes_by_tag_.emplace_back();
  return id;
}

TagId Document::FindTag(std::string_view name) const {
  auto it = tag_ids_.find(std::string(name));
  return it == tag_ids_.end() ? kInvalidTag : it->second;
}

const std::string& Document::TagName(TagId tag) const {
  VJ_DCHECK(tag < tag_names_.size());
  return tag_names_[tag];
}

NodeId Document::StartElement(TagId tag) {
  VJ_CHECK(tag < tag_names_.size()) << "unknown tag id";
  VJ_CHECK(open_stack_.size() > 0 || labels_.empty())
      << "document already has a root";
  NodeId id = static_cast<NodeId>(labels_.size());
  Label label;
  label.start = next_pos_++;
  label.end = 0;  // patched in EndElement
  label.level = static_cast<uint32_t>(open_stack_.size() + 1);
  labels_.push_back(label);
  tags_.push_back(tag);
  first_child_.push_back(kInvalidNode);
  last_child_.push_back(kInvalidNode);
  next_sibling_.push_back(kInvalidNode);
  deleted_.push_back(0);

  NodeId parent = open_stack_.empty() ? kInvalidNode : open_stack_.back();
  parents_.push_back(parent);
  if (parent != kInvalidNode) {
    if (first_child_[parent] == kInvalidNode) {
      first_child_[parent] = id;
    } else {
      next_sibling_[last_child_[parent]] = id;
    }
    last_child_[parent] = id;
  }
  nodes_by_tag_[tag].push_back(id);
  open_stack_.push_back(id);
  return id;
}

void Document::EndElement() {
  VJ_CHECK(!open_stack_.empty()) << "EndElement without matching StartElement";
  NodeId id = open_stack_.back();
  open_stack_.pop_back();
  labels_[id].end = next_pos_++;
}

const std::vector<NodeId>& Document::NodesOfTag(TagId tag) const {
  if (tag >= nodes_by_tag_.size()) return empty_list_;
  return nodes_by_tag_[tag];
}

NodeId Document::FindByStart(TagId tag, uint32_t start) const {
  const std::vector<NodeId>& list = NodesOfTag(tag);
  auto it = std::lower_bound(list.begin(), list.end(), start,
                             [this](NodeId n, uint32_t s) {
                               return labels_[n].start < s;
                             });
  if (it == list.end() || labels_[*it].start != start) return kInvalidNode;
  return *it;
}

util::Status Document::RelabelWithGap(uint32_t gap) {
  if (gap == 0) {
    return util::Status::InvalidArgument("relabel gap must be positive");
  }
  if (!IsComplete()) {
    return util::Status::InvalidArgument(
        "cannot relabel a document under construction");
  }
  uint64_t max_pos = labels_[0].end;  // the root's end encloses every label
  if (max_pos * gap > 0xFFFFFFFFull) {
    return util::Status::ResourceExhausted(
        "relabel by gap " + std::to_string(gap) + " overflows 32-bit labels");
  }
  for (Label& l : labels_) {
    l.start *= gap;
    l.end *= gap;
  }
  next_pos_ = labels_[0].end + 1;
  ++revision_;
  return util::Status::Ok();
}

util::StatusOr<NodeId> Document::InsertSubtree(const SubtreeSpec& spec,
                                               NodeId parent, NodeId after) {
  if (!IsComplete()) {
    return util::Status::InvalidArgument(
        "cannot insert into a document under construction");
  }
  if (spec.nodes.empty()) {
    return util::Status::InvalidArgument("empty subtree spec");
  }
  if (!IsLive(parent)) {
    return util::Status::InvalidArgument("insert parent is not a live node");
  }
  if (after != kInvalidNode &&
      (!IsLive(after) || parents_[after] != parent)) {
    return util::Status::InvalidArgument(
        "`after` is not a live child of `parent`");
  }
  for (size_t i = 0; i < spec.nodes.size(); ++i) {
    uint32_t p = spec.nodes[i].parent;
    bool ok = (i == 0) ? p == SubtreeSpec::kNoParent
                       : p != SubtreeSpec::kNoParent && p < i;
    if (!ok) {
      return util::Status::InvalidArgument(
          "subtree spec is not a rooted preorder at node " +
          std::to_string(i));
    }
  }

  // The open label window (lo, hi) at the insertion point.
  uint32_t lo =
      after != kInvalidNode ? labels_[after].end : labels_[parent].start;
  NodeId next_node =
      after != kInvalidNode ? next_sibling_[after] : first_child_[parent];
  uint32_t hi = next_node != kInvalidNode ? labels_[next_node].start
                                          : labels_[parent].end;
  uint64_t need = 2 * static_cast<uint64_t>(spec.nodes.size());
  if (static_cast<uint64_t>(hi) - lo < need + 1) {
    return util::Status::ResourceExhausted(
        "label gap (" + std::to_string(lo) + ", " + std::to_string(hi) +
        ") cannot fit " + std::to_string(need) +
        " new positions; relabel the document");
  }
  // Spread the new positions evenly so future inserts inherit slack.
  uint32_t step = static_cast<uint32_t>((hi - lo) / (need + 1));

  // Intern tags and build the spec's child lists up front, so nothing below
  // can fail and the document mutates atomically.
  std::vector<TagId> spec_tags(spec.nodes.size());
  std::vector<std::vector<uint32_t>> spec_kids(spec.nodes.size());
  for (size_t i = 0; i < spec.nodes.size(); ++i) {
    spec_tags[i] = InternTag(spec.nodes[i].tag);
    if (i > 0) spec_kids[spec.nodes[i].parent].push_back(i);
  }

  NodeId base = static_cast<NodeId>(labels_.size());
  uint32_t base_level = labels_[parent].level;
  size_t n = spec.nodes.size();
  labels_.resize(base + n);
  tags_.resize(base + n);
  parents_.resize(base + n, kInvalidNode);
  first_child_.resize(base + n, kInvalidNode);
  last_child_.resize(base + n, kInvalidNode);
  next_sibling_.resize(base + n, kInvalidNode);
  deleted_.resize(base + n, 0);

  // Walk the spec like a document build, drawing positions lo + k*step.
  uint32_t pos_index = 1;
  struct Frame {
    uint32_t spec_node;
    size_t next_kid;
  };
  std::vector<Frame> stack;
  stack.push_back({0, 0});
  labels_[base].start = lo + step * pos_index++;
  labels_[base].level = base_level + 1;
  tags_[base] = spec_tags[0];
  parents_[base] = parent;
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_kid < spec_kids[f.spec_node].size()) {
      uint32_t kid = spec_kids[f.spec_node][f.next_kid++];
      NodeId kid_id = base + kid;
      NodeId par_id = base + f.spec_node;
      labels_[kid_id].start = lo + step * pos_index++;
      labels_[kid_id].level = labels_[par_id].level + 1;
      tags_[kid_id] = spec_tags[kid];
      parents_[kid_id] = par_id;
      if (first_child_[par_id] == kInvalidNode) {
        first_child_[par_id] = kid_id;
      } else {
        next_sibling_[last_child_[par_id]] = kid_id;
      }
      last_child_[par_id] = kid_id;
      stack.push_back({kid, 0});
    } else {
      labels_[base + f.spec_node].end = lo + step * pos_index++;
      stack.pop_back();
    }
  }
  VJ_DCHECK(pos_index == need + 1);

  // Splice the subtree root into the sibling chain of `parent`.
  if (after != kInvalidNode) {
    next_sibling_[base] = next_sibling_[after];
    next_sibling_[after] = base;
    if (last_child_[parent] == after) last_child_[parent] = base;
  } else {
    next_sibling_[base] = first_child_[parent];
    first_child_[parent] = base;
    if (last_child_[parent] == kInvalidNode) last_child_[parent] = base;
  }

  // Keep every per-tag stream sorted by start label.
  for (NodeId id = base; id < base + n; ++id) {
    std::vector<NodeId>& list = nodes_by_tag_[tags_[id]];
    auto it = std::lower_bound(list.begin(), list.end(), labels_[id].start,
                               [this](NodeId a, uint32_t s) {
                                 return labels_[a].start < s;
                               });
    list.insert(it, id);
  }
  ++revision_;
  return base;
}

util::Status Document::DeleteSubtree(NodeId root,
                                     std::vector<NodeId>* removed) {
  if (!IsComplete()) {
    return util::Status::InvalidArgument(
        "cannot delete from a document under construction");
  }
  if (!IsLive(root)) {
    return util::Status::InvalidArgument(
        "delete target is not a live node");
  }
  if (root == Root()) {
    return util::Status::InvalidArgument("cannot delete the document root");
  }

  // Collect the subtree in preorder over the structure links.
  std::vector<NodeId> subtree;
  std::vector<NodeId> stack = {root};
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    subtree.push_back(n);
    // Push children in reverse so preorder pops left to right.
    std::vector<NodeId> kids;
    for (NodeId c = first_child_[n]; c != kInvalidNode; c = next_sibling_[c]) {
      kids.push_back(c);
    }
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) stack.push_back(*it);
  }

  // Unlink the root from its parent's child chain.
  NodeId parent = parents_[root];
  VJ_DCHECK(parent != kInvalidNode);
  if (first_child_[parent] == root) {
    first_child_[parent] = next_sibling_[root];
    if (last_child_[parent] == root) {
      last_child_[parent] = kInvalidNode;
    }
  } else {
    NodeId prev = first_child_[parent];
    while (next_sibling_[prev] != root) prev = next_sibling_[prev];
    next_sibling_[prev] = next_sibling_[root];
    if (last_child_[parent] == root) last_child_[parent] = prev;
  }

  // Tombstone: out of the per-tag streams and structure, but labels and tags
  // stay readable so delta maintenance can see what was removed.
  for (NodeId n : subtree) {
    deleted_[n] = 1;
    std::vector<NodeId>& list = nodes_by_tag_[tags_[n]];
    auto it = std::lower_bound(list.begin(), list.end(), labels_[n].start,
                               [this](NodeId a, uint32_t s) {
                                 return labels_[a].start < s;
                               });
    VJ_DCHECK(it != list.end() && *it == n);
    list.erase(it);
  }
  next_sibling_[root] = kInvalidNode;
  deleted_count_ += subtree.size();
  ++revision_;
  if (removed != nullptr) {
    removed->insert(removed->end(), subtree.begin(), subtree.end());
  }
  return util::Status::Ok();
}

SubtreeSpec SpecFromDocument(const Document& doc, NodeId root) {
  SubtreeSpec spec;
  if (root >= doc.NodeCount()) return spec;
  // Preorder walk mapping document ids to spec indices.
  std::vector<std::pair<NodeId, uint32_t>> stack;  // (node, spec parent)
  stack.push_back({root, SubtreeSpec::kNoParent});
  while (!stack.empty()) {
    auto [n, spec_parent] = stack.back();
    stack.pop_back();
    uint32_t index = static_cast<uint32_t>(spec.nodes.size());
    spec.nodes.push_back({doc.TagName(doc.NodeTag(n)), spec_parent});
    std::vector<NodeId> kids;
    for (NodeId c = doc.FirstChild(n); c != kInvalidNode;
         c = doc.NextSibling(c)) {
      kids.push_back(c);
    }
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.push_back({*it, index});
    }
  }
  return spec;
}

size_t Document::MemoryBytes() const {
  size_t bytes = labels_.size() * (sizeof(Label) + sizeof(TagId) +
                                   3 * sizeof(NodeId) + sizeof(NodeId));
  for (const auto& name : tag_names_) bytes += name.size() + sizeof(TagId);
  return bytes;
}

}  // namespace viewjoin::xml
