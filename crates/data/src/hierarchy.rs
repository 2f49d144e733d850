//! Domain generalization hierarchies for categorical attributes.
//!
//! A [`Hierarchy`] is a rooted tree whose leaves are exactly the attribute's
//! domain values (codes `0..r`). It provides the two queries the paper needs:
//!
//! * the **semantic distance** between two values,
//!   `d(v_i, v_j) = h(lca(v_i, v_j)) / H` where `h` is the height of the
//!   lowest common ancestor and `H` the height of the hierarchy (§II.C);
//! * the **lowest common ancestor of a set** of values, used by the Mondrian
//!   generalizer to label a group's categorical range.

use crate::error::DataError;

/// Identifier of a node inside a [`Hierarchy`].
pub type NodeId = usize;

#[derive(Debug, Clone)]
struct Node {
    label: String,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    /// Height of this node: 0 for leaves, 1 + max(child height) otherwise.
    height: u32,
    /// For leaves, the domain code this leaf encodes.
    leaf_code: Option<u32>,
}

/// A rooted generalization hierarchy over a categorical domain.
///
/// Build one with [`HierarchyBuilder`], or use [`Hierarchy::flat`] for the
/// common two-level hierarchy (root → all leaves).
#[derive(Debug, Clone)]
pub struct Hierarchy {
    nodes: Vec<Node>,
    root: NodeId,
    /// `leaf_of[code]` is the node id of the leaf carrying `code`.
    leaf_of: Vec<NodeId>,
    height: u32,
}

impl Hierarchy {
    /// A flat hierarchy: a single root whose children are all `labels`
    /// in code order. Its height is 1 and every pair of distinct values is at
    /// maximal distance 1.
    pub fn flat(root_label: &str, labels: &[&str]) -> Self {
        let mut b = HierarchyBuilder::new(root_label);
        for l in labels {
            b.leaf_under_root(l);
        }
        b.build().expect("flat hierarchy is always valid")
    }

    /// Height of the hierarchy (height of the root). A hierarchy with only a
    /// root and leaves has height 1.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of leaves, i.e. the domain size this hierarchy covers.
    pub fn leaf_count(&self) -> usize {
        self.leaf_of.len()
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Label of `node`.
    pub fn label(&self, node: NodeId) -> &str {
        &self.nodes[node].label
    }

    /// Height of `node` (0 for leaves).
    pub fn node_height(&self, node: NodeId) -> u32 {
        self.nodes[node].height
    }

    /// Lowest common ancestor of two domain codes.
    pub fn lca(&self, a: u32, b: u32) -> NodeId {
        let mut x = self.leaf_of[a as usize];
        let mut y = self.leaf_of[b as usize];
        // Walk both paths to the root; equalize depths first.
        let depth = |mut n: NodeId| {
            let mut d = 0usize;
            while let Some(p) = self.nodes[n].parent {
                n = p;
                d += 1;
            }
            d
        };
        let (mut dx, mut dy) = (depth(x), depth(y));
        while dx > dy {
            x = self.nodes[x].parent.expect("depth accounted");
            dx -= 1;
        }
        while dy > dx {
            y = self.nodes[y].parent.expect("depth accounted");
            dy -= 1;
        }
        while x != y {
            x = self.nodes[x].parent.expect("roots are shared");
            y = self.nodes[y].parent.expect("roots are shared");
        }
        x
    }

    /// Lowest common ancestor of a non-empty set of codes.
    pub fn lca_of_set(&self, codes: impl IntoIterator<Item = u32>) -> Option<NodeId> {
        let mut it = codes.into_iter();
        let first = it.next()?;
        let mut acc = self.leaf_of[first as usize];
        for c in it {
            acc = self.lca_nodes(acc, self.leaf_of[c as usize]);
        }
        Some(acc)
    }

    fn lca_nodes(&self, mut x: NodeId, mut y: NodeId) -> NodeId {
        let depth = |mut n: NodeId| {
            let mut d = 0usize;
            while let Some(p) = self.nodes[n].parent {
                n = p;
                d += 1;
            }
            d
        };
        let (mut dx, mut dy) = (depth(x), depth(y));
        while dx > dy {
            x = self.nodes[x].parent.expect("depth accounted");
            dx -= 1;
        }
        while dy > dx {
            y = self.nodes[y].parent.expect("depth accounted");
            dy -= 1;
        }
        while x != y {
            x = self.nodes[x].parent.expect("roots are shared");
            y = self.nodes[y].parent.expect("roots are shared");
        }
        x
    }

    /// Normalized semantic distance between two codes:
    /// `h(lca(a, b)) / H`, which is 0 iff `a == b` and at most 1.
    pub fn distance(&self, a: u32, b: u32) -> f64 {
        if a == b {
            return 0.0;
        }
        f64::from(self.node_height(self.lca(a, b))) / f64::from(self.height)
    }

    /// Total number of nodes (internal + leaves).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Parent of `node`, or `None` for the root.
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.nodes[node].parent
    }

    /// Children of `node`.
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.nodes[node].children
    }

    /// Domain code carried by `node` if it is a leaf.
    pub fn leaf_code(&self, node: NodeId) -> Option<u32> {
        self.nodes[node].leaf_code
    }

    /// Node id of the leaf carrying domain code `code`.
    pub fn leaf_node(&self, code: u32) -> NodeId {
        self.leaf_of[code as usize]
    }

    /// All leaf codes below `node`, in code order.
    pub fn leaves_below(&self, node: NodeId) -> Vec<u32> {
        let mut out = Vec::new();
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            if let Some(code) = self.nodes[n].leaf_code {
                out.push(code);
            }
            stack.extend(self.nodes[n].children.iter().copied());
        }
        out.sort_unstable();
        out
    }
}

/// Incremental builder for [`Hierarchy`] trees.
///
/// Leaves receive codes in the order they are added, so add them in the same
/// order as the attribute's domain labels.
#[derive(Debug)]
pub struct HierarchyBuilder {
    nodes: Vec<Node>,
    next_code: u32,
}

impl HierarchyBuilder {
    /// Start a hierarchy with a root labelled `root_label`.
    pub fn new(root_label: &str) -> Self {
        HierarchyBuilder {
            nodes: vec![Node {
                label: root_label.to_owned(),
                parent: None,
                children: Vec::new(),
                height: 0,
                leaf_code: None,
            }],
            next_code: 0,
        }
    }

    /// Root node id (always 0).
    pub fn root(&self) -> NodeId {
        0
    }

    /// Add an internal node under `parent`; returns its id.
    pub fn internal(&mut self, parent: NodeId, label: &str) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(Node {
            label: label.to_owned(),
            parent: Some(parent),
            children: Vec::new(),
            height: 0,
            leaf_code: None,
        });
        self.nodes[parent].children.push(id);
        id
    }

    /// Add a leaf under `parent`; the leaf receives the next domain code.
    /// Returns the code assigned.
    pub fn leaf(&mut self, parent: NodeId, label: &str) -> u32 {
        let id = self.nodes.len();
        let code = self.next_code;
        self.next_code += 1;
        self.nodes.push(Node {
            label: label.to_owned(),
            parent: Some(parent),
            children: Vec::new(),
            height: 0,
            leaf_code: Some(code),
        });
        self.nodes[parent].children.push(id);
        code
    }

    /// Convenience: add a leaf directly under the root.
    fn leaf_under_root(&mut self, label: &str) -> u32 {
        self.leaf(0, label)
    }

    /// Finalize the hierarchy, computing node heights and the leaf index.
    pub fn build(mut self) -> Result<Hierarchy, DataError> {
        if self.next_code == 0 {
            return Err(DataError::InvalidHierarchy {
                reason: "hierarchy has no leaves".into(),
            });
        }
        // Internal nodes with no children are invalid: they would be neither
        // leaves (no code) nor meaningful generalizations.
        for n in &self.nodes {
            if n.leaf_code.is_none() && n.children.is_empty() && n.parent.is_some() {
                return Err(DataError::InvalidHierarchy {
                    reason: format!("internal node `{}` has no children", n.label),
                });
            }
        }
        // Compute heights bottom-up. Children always have larger ids than
        // parents (builder invariant), so a reverse scan suffices.
        for i in (0..self.nodes.len()).rev() {
            let h = self.nodes[i]
                .children
                .iter()
                .map(|&c| self.nodes[c].height + 1)
                .max()
                .unwrap_or(0);
            self.nodes[i].height = h;
        }
        let mut leaf_of = vec![usize::MAX; self.next_code as usize];
        for (id, n) in self.nodes.iter().enumerate() {
            if let Some(code) = n.leaf_code {
                leaf_of[code as usize] = id;
            }
        }
        let height = self.nodes[0].height;
        Ok(Hierarchy {
            nodes: self.nodes,
            root: 0,
            leaf_of,
            height,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_level() -> Hierarchy {
        // root
        // ├── white-collar: {exec, prof, clerical}
        // └── blue-collar:  {craft, machine}
        let mut b = HierarchyBuilder::new("Any");
        let white = b.internal(b.root(), "white-collar");
        let blue = b.internal(b.root(), "blue-collar");
        b.leaf(white, "exec");
        b.leaf(white, "prof");
        b.leaf(white, "clerical");
        b.leaf(blue, "craft");
        b.leaf(blue, "machine");
        b.build().unwrap()
    }

    #[test]
    fn flat_hierarchy_has_height_one_and_max_distance() {
        let h = Hierarchy::flat("Any", &["a", "b", "c"]);
        assert_eq!(h.height(), 1);
        assert_eq!(h.leaf_count(), 3);
        assert_eq!(h.distance(0, 0), 0.0);
        assert_eq!(h.distance(0, 1), 1.0);
        assert_eq!(h.distance(2, 1), 1.0);
    }

    #[test]
    fn two_level_distances() {
        let h = two_level();
        assert_eq!(h.height(), 2);
        // Same sub-category: lca height 1, H = 2 → 0.5.
        assert_eq!(h.distance(0, 1), 0.5);
        assert_eq!(h.distance(3, 4), 0.5);
        // Across categories: lca = root → 1.0.
        assert_eq!(h.distance(0, 3), 1.0);
        // Identity.
        assert_eq!(h.distance(2, 2), 0.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let h = two_level();
        for a in 0..5u32 {
            for b in 0..5u32 {
                assert_eq!(h.distance(a, b), h.distance(b, a));
            }
        }
    }

    #[test]
    fn lca_of_set_generalizes_minimally() {
        let h = two_level();
        let same_branch = h.lca_of_set([0u32, 1, 2]).unwrap();
        assert_eq!(h.label(same_branch), "white-collar");
        let cross = h.lca_of_set([0u32, 4]).unwrap();
        assert_eq!(h.label(cross), "Any");
        let single = h.lca_of_set([3u32]).unwrap();
        assert_eq!(h.label(single), "craft");
        assert!(h.lca_of_set(std::iter::empty()).is_none());
    }

    #[test]
    fn leaves_below_returns_sorted_codes() {
        let h = two_level();
        assert_eq!(h.leaves_below(h.root()), vec![0, 1, 2, 3, 4]);
        let white = h.lca_of_set([0u32, 2]).unwrap();
        assert_eq!(h.leaves_below(white), vec![0, 1, 2]);
    }

    #[test]
    fn empty_hierarchy_rejected() {
        let b = HierarchyBuilder::new("Any");
        assert!(matches!(b.build(), Err(DataError::InvalidHierarchy { .. })));
    }

    #[test]
    fn childless_internal_node_rejected() {
        let mut b = HierarchyBuilder::new("Any");
        let dangling = b.internal(b.root(), "dangling");
        let _ = dangling;
        b.leaf_under_root("a");
        assert!(matches!(b.build(), Err(DataError::InvalidHierarchy { .. })));
    }

    #[test]
    fn unbalanced_hierarchy_heights() {
        // root → (x → (y → leaf0)), leaf1
        let mut b = HierarchyBuilder::new("root");
        let x = b.internal(b.root(), "x");
        let y = b.internal(x, "y");
        b.leaf(y, "leaf0");
        b.leaf_under_root("leaf1");
        let h = b.build().unwrap();
        assert_eq!(h.height(), 3);
        // lca(0, 1) is the root at height 3 → distance 1.0.
        assert_eq!(h.distance(0, 1), 1.0);
    }
}
