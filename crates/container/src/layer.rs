//! Filesystem layers.
//!
//! A layer is an ordered set of file entries (path → bytes, plus whiteouts for deletions),
//! serialised into a deterministic archive so that identical content always produces the
//! same digest. This mirrors how OCI layers are tar archives addressed by the digest of
//! their bytes, which is the property the XaaS pipeline relies on when it reuses layers
//! between configurations (dependency layers, toolchain layers, IR layers).

use crate::digest::Digest;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Kind of a single entry inside a layer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LayerEntry {
    /// A regular file with content.
    File {
        /// File payload.
        content: Vec<u8>,
        /// Unix-style permission bits (only the executable bit matters for the model).
        mode: u32,
    },
    /// A directory marker.
    Directory,
    /// A symbolic link to another path inside the image.
    Symlink {
        /// Link target.
        target: String,
    },
    /// A whiteout: deletes the path from lower layers when the image is flattened.
    Whiteout,
}

impl LayerEntry {
    /// Size in bytes accounted for this entry.
    pub fn size(&self) -> u64 {
        match self {
            LayerEntry::File { content, .. } => content.len() as u64,
            _ => 0,
        }
    }
}

/// A layer's sealed identity: the diff ID and length of its archive, computed at
/// most once, the first time anything asks for it.
///
/// Like `xir::memo::DigestCell`, the seal is a cache, not data: equality,
/// `Debug` and serde ignore it, and `Default` and deserialization start empty.
/// Unlike `DigestCell`, a clone *shares* the cell, because a cloned layer has the
/// same content — so the layers an image inherits through
/// [`Image::derive_from`](crate::image::Image::derive_from) stay sealed. Every
/// `&mut` mutator of [`Layer`] gives the layer a fresh cell instead.
#[derive(Clone, Default)]
struct Seal(Arc<OnceLock<(Digest, u64)>>);

impl Seal {
    /// Always `true`: the seal never appears in serialized output.
    fn skip(&self) -> bool {
        true
    }
}

impl PartialEq for Seal {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for Seal {}

impl Serialize for Seal {
    /// Never called in practice (the field is always skipped).
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl Deserialize for Seal {
    /// A decoded layer recomputes its identity from its own content.
    fn from_value(_value: &Value) -> Result<Self, serde::Error> {
        Ok(Self::default())
    }
}

/// A single filesystem layer: a deterministic map from paths to entries.
#[derive(Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Layer {
    created_by: String,
    entries: BTreeMap<String, LayerEntry>,
    #[serde(default, skip_serializing_if = "Seal::skip")]
    seal: Seal,
}

impl fmt::Debug for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Layer")
            .field("created_by", &self.created_by)
            .field("entries", &self.entries)
            .finish()
    }
}

impl Layer {
    /// Create an empty layer with a `created_by` history note.
    pub fn new(created_by: impl Into<String>) -> Self {
        Self {
            created_by: created_by.into(),
            entries: BTreeMap::new(),
            seal: Seal::default(),
        }
    }

    /// Human-readable description of the step that created the layer, recorded in
    /// the image history.
    pub fn created_by(&self) -> &str {
        &self.created_by
    }

    /// Insert an entry, unsealing the layer: its content is about to differ from
    /// any clone that shares the current seal.
    fn insert(&mut self, path: String, entry: LayerEntry) -> &mut Self {
        match Arc::get_mut(&mut self.seal.0) {
            Some(cell) => drop(cell.take()),
            None => self.seal = Seal::default(),
        }
        self.entries.insert(normalize_path(&path), entry);
        self
    }

    /// Add (or replace) a regular file.
    pub fn add_file(&mut self, path: impl Into<String>, content: impl Into<Vec<u8>>) -> &mut Self {
        self.insert(
            path.into(),
            LayerEntry::File {
                content: content.into(),
                mode: 0o644,
            },
        )
    }

    /// Add (or replace) an executable file.
    pub fn add_executable(
        &mut self,
        path: impl Into<String>,
        content: impl Into<Vec<u8>>,
    ) -> &mut Self {
        self.insert(
            path.into(),
            LayerEntry::File {
                content: content.into(),
                mode: 0o755,
            },
        )
    }

    /// Add a text file (convenience wrapper over [`Layer::add_file`]).
    pub fn add_text(&mut self, path: impl Into<String>, content: impl Into<String>) -> &mut Self {
        self.add_file(path, content.into().into_bytes())
    }

    /// Add a directory marker.
    pub fn add_directory(&mut self, path: impl Into<String>) -> &mut Self {
        self.insert(path.into(), LayerEntry::Directory)
    }

    /// Add a symlink.
    pub fn add_symlink(&mut self, path: impl Into<String>, target: impl Into<String>) -> &mut Self {
        self.insert(
            path.into(),
            LayerEntry::Symlink {
                target: target.into(),
            },
        )
    }

    /// Record a whiteout (deletion of a path provided by a lower layer).
    pub fn add_whiteout(&mut self, path: impl Into<String>) -> &mut Self {
        self.insert(path.into(), LayerEntry::Whiteout)
    }

    /// Number of entries in this layer.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the layer carries no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total byte size of file contents in this layer.
    pub fn size_bytes(&self) -> u64 {
        self.entries.values().map(LayerEntry::size).sum()
    }

    /// Iterate over `(path, entry)` pairs in deterministic (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &LayerEntry)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Look up an entry by path.
    pub fn get(&self, path: &str) -> Option<&LayerEntry> {
        self.entries.get(&normalize_path(path))
    }

    /// Serialise the layer into a deterministic archive byte stream ("tarball" stand-in).
    ///
    /// The format is a simple length-prefixed record stream; determinism comes from the
    /// `BTreeMap` ordering, so `diff_id` is stable for identical content.
    pub fn to_archive(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.size_bytes() as usize);
        out.extend_from_slice(b"XAASLAYER1");
        write_str(&mut out, &self.created_by);
        out.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        for (path, entry) in &self.entries {
            write_str(&mut out, path);
            match entry {
                LayerEntry::File { content, mode } => {
                    out.push(0);
                    out.extend_from_slice(&mode.to_le_bytes());
                    out.extend_from_slice(&(content.len() as u64).to_le_bytes());
                    out.extend_from_slice(content);
                }
                LayerEntry::Directory => out.push(1),
                LayerEntry::Symlink { target } => {
                    out.push(2);
                    write_str(&mut out, target);
                }
                LayerEntry::Whiteout => out.push(3),
            }
        }
        out
    }

    /// Parse an archive produced by [`Layer::to_archive`].
    pub fn from_archive(bytes: &[u8]) -> Result<Self, LayerError> {
        let mut cur = Cursor { bytes, pos: 0 };
        let magic = cur.take(10)?;
        if magic != b"XAASLAYER1" {
            return Err(LayerError::BadMagic);
        }
        let created_by = cur.read_str()?;
        let count = cur.read_u64()? as usize;
        let mut layer = Layer::new(created_by);
        for _ in 0..count {
            let path = cur.read_str()?;
            let tag = cur.read_u8()?;
            let entry = match tag {
                0 => {
                    let mode = cur.read_u32()?;
                    let len = cur.read_u64()? as usize;
                    let content = cur.take(len)?.to_vec();
                    LayerEntry::File { content, mode }
                }
                1 => LayerEntry::Directory,
                2 => LayerEntry::Symlink {
                    target: cur.read_str()?,
                },
                3 => LayerEntry::Whiteout,
                other => return Err(LayerError::BadEntryTag(other)),
            };
            layer.entries.insert(path, entry);
        }
        Ok(layer)
    }

    /// The diff ID: digest of the uncompressed archive (as in OCI image config `rootfs.diff_ids`).
    ///
    /// Read from the layer's seal: a layer and its clones hash their archive at most once.
    pub fn diff_id(&self) -> Digest {
        self.sealed().0.clone()
    }

    /// The sealed `(diff ID, archive length)`, computed on first use.
    pub(crate) fn sealed(&self) -> &(Digest, u64) {
        self.seal_once().0
    }

    /// Like [`Layer::sealed`], also returning the archive when this call is the
    /// one that built and hashed it (`None` when the layer was already sealed).
    pub(crate) fn seal_once(&self) -> (&(Digest, u64), Option<Vec<u8>>) {
        let mut built = None;
        let sealed = self.seal.0.get_or_init(|| {
            let archive = self.to_archive();
            let identity = (Digest::of_bytes(&archive), archive.len() as u64);
            built = Some(archive);
            identity
        });
        (sealed, built)
    }
}

/// Errors while decoding layer archives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayerError {
    /// Archive magic did not match.
    BadMagic,
    /// Unexpected end of archive.
    Truncated,
    /// Unknown entry tag byte.
    BadEntryTag(u8),
    /// Embedded string was not UTF-8.
    BadString,
}

impl fmt::Display for LayerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayerError::BadMagic => write!(f, "layer archive has an invalid magic header"),
            LayerError::Truncated => write!(f, "layer archive is truncated"),
            LayerError::BadEntryTag(t) => write!(f, "unknown layer entry tag {t}"),
            LayerError::BadString => write!(f, "layer archive contains a non-UTF-8 string"),
        }
    }
}

impl std::error::Error for LayerError {}

/// A flattened root filesystem assembled from an ordered list of layers.
///
/// The XaaS deployment step flattens the source/IR container plus the newly built layers
/// into the final image root; whiteouts in upper layers remove paths from lower ones.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RootFs {
    files: BTreeMap<String, LayerEntry>,
}

impl RootFs {
    /// Flatten layers bottom-to-top.
    pub fn flatten<'a>(layers: impl IntoIterator<Item = &'a Layer>) -> Self {
        let mut files = BTreeMap::new();
        for layer in layers {
            for (path, entry) in layer.iter() {
                match entry {
                    LayerEntry::Whiteout => {
                        files.remove(path);
                        // A whiteout on a directory removes everything below it.
                        let prefix = format!("{}/", path);
                        files.retain(|p: &String, _| !p.starts_with(&prefix));
                    }
                    other => {
                        files.insert(path.to_string(), other.clone());
                    }
                }
            }
        }
        RootFs { files }
    }

    /// Look up a path.
    pub fn get(&self, path: &str) -> Option<&LayerEntry> {
        self.files.get(&normalize_path(path))
    }

    /// Read a file as UTF-8 text.
    pub fn read_text(&self, path: &str) -> Option<String> {
        match self.get(path) {
            Some(LayerEntry::File { content, .. }) => String::from_utf8(content.clone()).ok(),
            _ => None,
        }
    }

    /// All paths currently present.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.files.keys().map(String::as_str)
    }

    /// Paths under a given directory prefix.
    pub fn paths_under<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        let norm = normalize_path(prefix);
        self.files.keys().filter_map(move |p| {
            if p == &norm || p.starts_with(&format!("{}/", norm)) {
                Some(p.as_str())
            } else {
                None
            }
        })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True when the root filesystem holds no entries.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Total content size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.files.values().map(LayerEntry::size).sum()
    }
}

/// Normalise a path: leading `/`, no trailing `/`, collapse `//`.
pub fn normalize_path(path: &str) -> String {
    let mut parts: Vec<&str> = Vec::new();
    for part in path.split('/') {
        if part.is_empty() || part == "." {
            continue;
        }
        parts.push(part);
    }
    format!("/{}", parts.join("/"))
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u64).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], LayerError> {
        if self.pos + n > self.bytes.len() {
            return Err(LayerError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn read_u8(&mut self) -> Result<u8, LayerError> {
        Ok(self.take(1)?[0])
    }
    fn read_u32(&mut self) -> Result<u32, LayerError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn read_u64(&mut self) -> Result<u64, LayerError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
    fn read_str(&mut self) -> Result<String, LayerError> {
        let len = self.read_u64()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| LayerError::BadString)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_layer() -> Layer {
        let mut l = Layer::new("COPY src /app/src");
        l.add_text("/app/src/main.ck", "kernel main() {}");
        l.add_executable("/usr/bin/xirc", b"\x7fXIR".to_vec());
        l.add_directory("/app/build");
        l.add_symlink("/usr/lib/libfft.so", "/usr/lib/libfft.so.3");
        l
    }

    #[test]
    fn archive_roundtrip_preserves_layer() {
        let layer = sample_layer();
        let archive = layer.to_archive();
        let back = Layer::from_archive(&archive).unwrap();
        assert_eq!(back, layer);
    }

    #[test]
    fn diff_id_is_deterministic_and_content_sensitive() {
        let a = sample_layer();
        let b = sample_layer();
        assert_eq!(a.diff_id(), b.diff_id());
        let mut c = sample_layer();
        c.add_text("/extra", "x");
        assert_ne!(a.diff_id(), c.diff_id());
    }

    #[test]
    fn diff_id_independent_of_insertion_order() {
        let mut a = Layer::new("x");
        a.add_text("/a", "1").add_text("/b", "2");
        let mut b = Layer::new("x");
        b.add_text("/b", "2").add_text("/a", "1");
        assert_eq!(a.diff_id(), b.diff_id());
    }

    #[test]
    fn clones_share_the_seal_and_mutators_reset_it() {
        let layer = sample_layer();
        let clone = layer.clone();
        let sealed = layer.diff_id();
        assert!(clone.seal.0.get().is_some(), "a clone shares the seal");
        let mut edited = clone.clone();
        edited.add_whiteout("/app/build");
        assert!(
            edited.seal.0.get().is_none(),
            "a mutated clone starts unsealed"
        );
        assert_ne!(edited.diff_id(), sealed);
        assert_eq!(clone.diff_id(), sealed, "the shared seal is untouched");
        let mut owned = sample_layer();
        owned.diff_id();
        owned.add_directory("/tmp");
        assert!(
            owned.seal.0.get().is_none(),
            "a sole owner's seal is reset too"
        );
    }

    #[test]
    fn seal_is_ignored_by_equality_debug_and_serde() {
        let sealed = sample_layer();
        sealed.diff_id();
        let unsealed = sample_layer();
        assert_eq!(sealed, unsealed);
        assert_eq!(format!("{sealed:?}"), format!("{unsealed:?}"));
        let json = serde_json::to_string(&sealed).unwrap();
        assert_eq!(json, serde_json::to_string(&unsealed).unwrap());
        assert!(!json.contains("seal"));
        let back: Layer = serde_json::from_str(&json).unwrap();
        assert!(
            back.seal.0.get().is_none(),
            "a decoded layer starts unsealed"
        );
        assert_eq!(back.diff_id(), sealed.diff_id());
    }

    #[test]
    fn normalize_path_collapses_components() {
        assert_eq!(normalize_path("app//src/./x"), "/app/src/x");
        assert_eq!(normalize_path("/app/src/"), "/app/src");
        assert_eq!(normalize_path(""), "/");
    }

    #[test]
    fn rootfs_flatten_applies_overrides_and_whiteouts() {
        let mut base = Layer::new("base");
        base.add_text("/etc/os-release", "ubuntu 22.04");
        base.add_text("/opt/mpi/lib/libmpi.so", "generic mpich");
        base.add_text("/opt/mpi/include/mpi.h", "header");

        let mut upper = Layer::new("hook");
        upper.add_text("/opt/mpi/lib/libmpi.so", "cray mpich");
        upper.add_whiteout("/opt/mpi/include");

        let root = RootFs::flatten([&base, &upper]);
        assert_eq!(
            root.read_text("/opt/mpi/lib/libmpi.so").unwrap(),
            "cray mpich"
        );
        assert!(root.get("/opt/mpi/include/mpi.h").is_none());
        assert_eq!(root.read_text("/etc/os-release").unwrap(), "ubuntu 22.04");
    }

    #[test]
    fn rootfs_paths_under_prefix() {
        let root = RootFs::flatten([&sample_layer()]);
        let under: Vec<_> = root.paths_under("/app").collect();
        assert!(under.contains(&"/app/src/main.ck"));
        assert!(under.contains(&"/app/build"));
        assert!(!under.contains(&"/usr/bin/xirc"));
    }

    #[test]
    fn truncated_archive_is_rejected() {
        let archive = sample_layer().to_archive();
        let err = Layer::from_archive(&archive[..archive.len() - 3]).unwrap_err();
        assert_eq!(err, LayerError::Truncated);
        assert_eq!(
            Layer::from_archive(b"NOTALAYERX"),
            Err(LayerError::BadMagic)
        );
    }

    #[test]
    fn layer_size_accounting() {
        let layer = sample_layer();
        assert_eq!(layer.len(), 4);
        assert_eq!(layer.size_bytes(), "kernel main() {}".len() as u64 + 4);
        assert!(!layer.is_empty());
    }
}
