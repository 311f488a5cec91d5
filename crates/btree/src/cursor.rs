//! Scan cursors: resumable positions inside a B+ tree leaf chain.

use hpd_storage::PageId;

use crate::node::NodeId;

/// A resumable scan position. Produced by [`crate::BTree::cursor_seek`] and
/// advanced by [`crate::BTree::cursor_walk`]; `node == None` means the scan
/// is exhausted. `last_page` lets the tree distinguish sequential from
/// random leaf transitions when charging simulated I/O.
#[derive(Debug, Clone)]
pub struct Cursor {
    pub(crate) node: Option<NodeId>,
    pub(crate) idx: usize,
    pub(crate) last_page: PageId,
}

impl Cursor {
    pub(crate) fn at(node: NodeId, idx: usize, page: PageId) -> Cursor {
        Cursor {
            node: Some(node),
            idx,
            last_page: page,
        }
    }

    /// True once the scan has no more entries.
    pub fn is_exhausted(&self) -> bool {
        self.node.is_none()
    }
}
