//! File framing and the rotating on-disk checkpoint store.
//!
//! A checkpoint file is:
//!
//! ```text
//! magic "RGCK" | version u32 LE | payload_len u64 LE | payload | crc32 u32 LE
//! ```
//!
//! where the CRC covers the payload bytes only. Writes go through a sibling
//! tmp file + `rename`, so a crash mid-write can never clobber the previous
//! good checkpoint; the store additionally keeps the previous generation
//! (`state.prev.rgck`) so a checkpoint that was *fully* written but is later
//! found corrupt (bit rot, partial fsync) still has a fallback.
//!
//! The store recycles the files it retires instead of freeing them. On a
//! filesystem mounted with online discard, freeing a freshly fsynced file
//! (by unlink, rename-over or `O_TRUNC`) can block the caller for tens of
//! milliseconds, while rewriting existing blocks costs well under one. So
//! before a rename replaces a generation, the outgoing file is hard-linked
//! as `state.spare.rgck`, and the next write fills that spare in place.
//! Every rename is still an atomic replace; after warm-up the directory
//! keeps the same set of inodes.

use std::fs;
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};

use crate::codec::{crc32, ByteReader, Error, Result};

/// File magic: "RGCK" (rgae checkpoint).
pub const MAGIC: [u8; 4] = *b"RGCK";

/// Current format version.
pub const VERSION: u32 = 1;

/// Wrap a payload in the framed on-disk representation.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 20);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

/// Validate framing + CRC and return the payload bytes.
pub fn unframe(bytes: &[u8]) -> Result<Vec<u8>> {
    let mut r = ByteReader::new(bytes);
    let mut magic = [0u8; 4];
    for slot in &mut magic {
        *slot = r.get_u8().map_err(|_| Error::BadMagic)?;
    }
    if magic != MAGIC {
        return Err(Error::BadMagic);
    }
    let version = r.get_u32()?;
    if version != VERSION {
        return Err(Error::BadVersion(version));
    }
    let len = r.get_usize()?;
    if r.remaining() != len + 4 {
        // Payload + trailing CRC must account for every remaining byte.
        return Err(Error::BadCrc);
    }
    let payload = &bytes[bytes.len() - len - 4..bytes.len() - 4];
    let mut tail = ByteReader::new(&bytes[bytes.len() - 4..]);
    let stored = tail.get_u32()?;
    if crc32(payload) != stored {
        return Err(Error::BadCrc);
    }
    Ok(payload.to_vec())
}

/// Read and validate a checkpoint file, returning its payload.
pub fn read_checkpoint(path: &Path) -> Result<Vec<u8>> {
    let bytes = fs::read(path)?;
    unframe(&bytes)
}

/// The sibling `<path>.tmp` a write goes through before its rename.
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Write a framed checkpoint atomically: write to a sibling `.tmp` file,
/// fsync, then `rename` over the destination.
pub fn write_checkpoint_atomic(path: &Path, payload: &[u8]) -> Result<()> {
    let tmp = tmp_path(path);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&frame(payload))?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Overwrite an open file with `bytes` from offset 0, cut it to their
/// length, and fsync it.
fn write_in_place(mut file: fs::File, bytes: &[u8]) -> Result<()> {
    file.write_all(bytes)?;
    file.set_len(bytes.len() as u64)?;
    file.sync_all()?;
    Ok(())
}

/// Number of directory entries naming the file (1 where the platform does
/// not say, which only disables spare reuse there).
fn link_count(meta: &fs::Metadata) -> u64 {
    #[cfg(unix)]
    {
        std::os::unix::fs::MetadataExt::nlink(meta)
    }
    #[cfg(not(unix))]
    {
        let _ = meta;
        u64::MAX
    }
}

/// A directory holding the latest checkpoint plus one previous generation.
///
/// Layout: `state.rgck` (latest), `state.prev.rgck` (previous good),
/// `state.healthy.rgck` (the guard layer's tag) and `state.spare.rgck` (a
/// retired generation kept only for its blocks; never a load candidate).
/// [`CheckpointStore::save`] writes the new generation next to the current
/// ones, then rotates latest → prev and renames it into place, so a save
/// that is interrupted or later found corrupt always leaves a fallback.
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Open (creating if needed) a checkpoint directory.
    pub fn open(dir: &Path) -> Result<Self> {
        fs::create_dir_all(dir)?;
        Ok(CheckpointStore {
            dir: dir.to_path_buf(),
        })
    }

    /// Path of the latest checkpoint.
    pub fn latest_path(&self) -> PathBuf {
        self.dir.join("state.rgck")
    }

    /// Path of the previous-generation checkpoint.
    pub fn prev_path(&self) -> PathBuf {
        self.dir.join("state.prev.rgck")
    }

    /// Path of the last checkpoint generation tagged healthy by the guard
    /// layer (a copy of the latest made after its state passed every
    /// numerical-health check).
    pub fn healthy_path(&self) -> PathBuf {
        self.dir.join("state.healthy.rgck")
    }

    /// Path of the spare: the file the last rename retired, whose blocks
    /// the next write reuses.
    pub fn spare_path(&self) -> PathBuf {
        self.dir.join("state.spare.rgck")
    }

    /// Candidate files for loading, newest first.
    pub fn candidates(&self) -> [PathBuf; 2] {
        [self.latest_path(), self.prev_path()]
    }

    /// Candidate files for a guard rollback, in preference order: the
    /// latest save, the healthy-tagged generation, then the previous
    /// generation. Rollback only ever targets states saved on healthy
    /// epochs, so `latest` is normally the freshest usable state; the
    /// healthy tag is the CRC fallback when `latest` was corrupted on disk
    /// after being written.
    pub fn recovery_candidates(&self) -> [PathBuf; 3] {
        [self.latest_path(), self.healthy_path(), self.prev_path()]
    }

    /// Open `tmp` for the next write: the spare renamed there when no live
    /// name aliases it (link count 1), else a new file. A spare with more
    /// links is a live generation left linked by a crash; dropping that
    /// extra name frees nothing. No `O_TRUNC`: [`write_in_place`] cuts the
    /// file to length after writing.
    fn claim_tmp(&self, tmp: &Path) -> Result<fs::File> {
        let spare = self.spare_path();
        match fs::symlink_metadata(&spare) {
            Ok(meta) if link_count(&meta) == 1 => fs::rename(&spare, tmp)?,
            Ok(_) => fs::remove_file(&spare)?,
            Err(e) if e.kind() == ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        Ok(fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(tmp)?)
    }

    /// Keep the file at `path` as the spare before a rename replaces it.
    /// Best effort: without the link the rename frees the old file, which
    /// is only slower.
    fn retire(&self, path: &Path) {
        let spare = self.spare_path();
        if path.exists() && !spare.exists() {
            let _ = fs::hard_link(path, spare);
        }
    }

    /// Tag the current latest generation as healthy: copy it to
    /// [`CheckpointStore::healthy_path`] through a sibling tmp + `rename`,
    /// so a crash mid-copy can't clobber the previous healthy tag.
    pub fn tag_healthy(&self) -> Result<PathBuf> {
        self.tag_healthy_steps(usize::MAX)
    }

    /// The first `steps` steps of [`CheckpointStore::tag_healthy`]; tests
    /// stop early to leave the directory as a crash there would.
    fn tag_healthy_steps(&self, steps: usize) -> Result<PathBuf> {
        let healthy = self.healthy_path();
        let tmp = tmp_path(&healthy);
        let bytes = fs::read(self.latest_path())?;
        let file = self.claim_tmp(&tmp)?;
        if steps > 1 {
            write_in_place(file, &bytes)?;
        }
        if steps > 2 {
            self.retire(&healthy);
        }
        if steps > 3 {
            fs::rename(&tmp, &healthy)?;
        }
        Ok(healthy)
    }

    /// Save a payload: write it into a tmp file, rotate the current latest
    /// to `prev`, then rename the tmp file into place as the new latest.
    pub fn save(&self, payload: &[u8]) -> Result<PathBuf> {
        self.save_steps(payload, usize::MAX)
    }

    /// The first `steps` steps of [`CheckpointStore::save`]; tests stop
    /// early to leave the directory as a crash there would.
    fn save_steps(&self, payload: &[u8], steps: usize) -> Result<PathBuf> {
        let latest = self.latest_path();
        let tmp = tmp_path(&latest);
        let file = self.claim_tmp(&tmp)?;
        if steps > 1 {
            write_in_place(file, &frame(payload))?;
        }
        if latest.exists() {
            if steps > 2 {
                self.retire(&self.prev_path());
            }
            if steps > 3 {
                fs::rename(&latest, self.prev_path())?;
            }
        }
        if steps > 4 {
            fs::rename(&tmp, &latest)?;
        }
        Ok(latest)
    }

    /// Load the newest checkpoint that passes CRC validation, together with
    /// the path it came from and how many newer candidates were rejected as
    /// corrupt. Returns `Ok(None)` when no checkpoint file exists at all.
    pub fn load_best(&self) -> Result<Option<(Vec<u8>, PathBuf, usize)>> {
        let mut rejected = 0;
        for path in self.candidates() {
            if !path.exists() {
                continue;
            }
            match read_checkpoint(&path) {
                Ok(payload) => return Ok(Some((payload, path, rejected))),
                Err(Error::Io(e)) => return Err(Error::Io(e)),
                Err(_) => rejected += 1,
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rgae-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn frame_round_trip() {
        let payload = b"hello checkpoint".to_vec();
        let framed = frame(&payload);
        assert_eq!(unframe(&framed).unwrap(), payload);
    }

    #[test]
    fn unframe_rejects_bad_magic() {
        let mut framed = frame(b"x");
        framed[0] ^= 0xFF;
        assert!(matches!(unframe(&framed), Err(Error::BadMagic)));
    }

    #[test]
    fn unframe_rejects_bad_version() {
        let mut framed = frame(b"x");
        framed[4] = 99;
        assert!(matches!(unframe(&framed), Err(Error::BadVersion(99))));
    }

    #[test]
    fn unframe_rejects_flipped_payload_bit() {
        let mut framed = frame(b"some payload bytes");
        framed[20] ^= 0x01;
        assert!(matches!(unframe(&framed), Err(Error::BadCrc)));
    }

    #[test]
    fn unframe_rejects_truncation() {
        let framed = frame(b"some payload bytes");
        for cut in [framed.len() - 1, framed.len() - 5, 10, 3] {
            assert!(unframe(&framed[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn store_rotates_and_falls_back() {
        let dir = tmp_dir("rotate");
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(store.load_best().unwrap().is_none());

        store.save(b"gen1").unwrap();
        store.save(b"gen2").unwrap();
        assert!(store.prev_path().exists());
        let (payload, path, rejected) = store.load_best().unwrap().unwrap();
        assert_eq!(payload, b"gen2");
        assert_eq!(path, store.latest_path());
        assert_eq!(rejected, 0);

        // Corrupt the latest: loader must fall back to gen1.
        let mut bytes = fs::read(store.latest_path()).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(store.latest_path(), &bytes).unwrap();
        let (payload, path, rejected) = store.load_best().unwrap().unwrap();
        assert_eq!(payload, b"gen1");
        assert_eq!(path, store.prev_path());
        assert_eq!(rejected, 1);

        // Corrupt both: loader reports nothing usable (but no panic/crash).
        fs::write(store.prev_path(), b"garbage").unwrap();
        assert!(store.load_best().unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn healthy_tag_copies_latest_and_survives_rotation() {
        let dir = tmp_dir("healthy");
        let store = CheckpointStore::open(&dir).unwrap();
        store.save(b"gen1").unwrap();
        store.tag_healthy().unwrap();
        assert_eq!(read_checkpoint(&store.healthy_path()).unwrap(), b"gen1");
        assert!(!dir.join("state.healthy.rgck.tmp").exists());

        // Newer unhealthy saves rotate latest/prev but leave the tag alone.
        store.save(b"gen2").unwrap();
        store.save(b"gen3").unwrap();
        assert_eq!(read_checkpoint(&store.healthy_path()).unwrap(), b"gen1");

        // A corrupt latest falls back to the healthy tag in recovery order.
        let mut bytes = fs::read(store.latest_path()).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(store.latest_path(), &bytes).unwrap();
        let usable = store
            .recovery_candidates()
            .into_iter()
            .find_map(|p| read_checkpoint(&p).ok());
        assert_eq!(usable.unwrap(), b"gen1");
        let _ = fs::remove_dir_all(&dir);
    }

    /// The inode of every file in `dir`, sorted.
    #[cfg(unix)]
    fn inodes(dir: &Path) -> Vec<u64> {
        use std::os::unix::fs::MetadataExt;
        let mut v: Vec<u64> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().metadata().unwrap().ino())
            .collect();
        v.sort_unstable();
        v
    }

    #[cfg(unix)]
    #[test]
    fn steady_state_recycles_a_fixed_set_of_inodes() {
        let dir = tmp_dir("recycle");
        let store = CheckpointStore::open(&dir).unwrap();
        let payload = |g: usize| vec![g as u8; 4096 + g % 3];
        for g in 0..4 {
            store.save(&payload(g)).unwrap();
            store.tag_healthy().unwrap();
        }
        let warm = inodes(&dir);
        assert_eq!(warm.len(), 4, "latest, prev, healthy and spare");
        for g in 4..14 {
            store.save(&payload(g)).unwrap();
            store.tag_healthy().unwrap();
            assert_eq!(inodes(&dir), warm, "round {g} allocated a new file");
            assert_eq!(read_checkpoint(&store.latest_path()).unwrap(), payload(g));
            assert_eq!(read_checkpoint(&store.prev_path()).unwrap(), payload(g - 1));
            assert_eq!(read_checkpoint(&store.healthy_path()).unwrap(), payload(g));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// First readable payload in rollback order.
    fn first_recoverable(store: &CheckpointStore) -> Vec<u8> {
        store
            .recovery_candidates()
            .into_iter()
            .find_map(|p| read_checkpoint(&p).ok())
            .unwrap()
    }

    #[test]
    fn crash_at_every_step_keeps_the_newest_complete_generation() {
        for steps in 1..=4 {
            let dir = tmp_dir(&format!("crash-save-{steps}"));
            let store = CheckpointStore::open(&dir).unwrap();
            for g in [b"gen1", b"gen2", b"gen3"] {
                store.save(g).unwrap();
                store.tag_healthy().unwrap();
            }
            store.save_steps(b"gen4-never-finished", steps).unwrap();
            let (payload, _, rejected) = store.load_best().unwrap().unwrap();
            assert_eq!(
                (payload.as_slice(), rejected),
                (&b"gen3"[..], 0),
                "save step {steps}"
            );
            assert_eq!(first_recoverable(&store), b"gen3", "save step {steps}");
            // The next save completes normally from the crashed state.
            store.save(b"gen5").unwrap();
            assert_eq!(read_checkpoint(&store.latest_path()).unwrap(), b"gen5");
            assert_eq!(read_checkpoint(&store.prev_path()).unwrap(), b"gen3");
            let _ = fs::remove_dir_all(&dir);
        }
        for steps in 1..=3 {
            let dir = tmp_dir(&format!("crash-tag-{steps}"));
            let store = CheckpointStore::open(&dir).unwrap();
            for g in [b"gen1", b"gen2", b"gen3"] {
                store.save(g).unwrap();
            }
            store.tag_healthy().unwrap();
            store.save(b"gen4").unwrap();
            store.tag_healthy_steps(steps).unwrap();
            assert_eq!(read_checkpoint(&store.healthy_path()).unwrap(), b"gen3");
            assert_eq!(store.load_best().unwrap().unwrap().0, b"gen4");
            store.tag_healthy().unwrap();
            assert_eq!(read_checkpoint(&store.healthy_path()).unwrap(), b"gen4");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn spare_aliased_to_a_live_file_is_never_written() {
        let dir = tmp_dir("alias");
        let store = CheckpointStore::open(&dir).unwrap();
        store.save(b"gen1").unwrap();
        store.tag_healthy().unwrap();
        store.save(b"gen2").unwrap();
        // A crash between linking and renaming leaves the spare naming a
        // live generation.
        let _ = fs::remove_file(store.spare_path());
        fs::hard_link(store.latest_path(), store.spare_path()).unwrap();
        store.save(b"gen3").unwrap();
        assert_eq!(read_checkpoint(&store.prev_path()).unwrap(), b"gen2");
        assert_eq!(read_checkpoint(&store.latest_path()).unwrap(), b"gen3");

        let _ = fs::remove_file(store.spare_path());
        fs::hard_link(store.healthy_path(), store.spare_path()).unwrap();
        store.save(b"gen4").unwrap();
        assert_eq!(read_checkpoint(&store.healthy_path()).unwrap(), b"gen1");
        store.tag_healthy().unwrap();
        assert_eq!(read_checkpoint(&store.healthy_path()).unwrap(), b"gen4");
        assert_eq!(read_checkpoint(&store.prev_path()).unwrap(), b"gen3");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn leftover_tmp_is_overwritten_and_cut_to_length() {
        let dir = tmp_dir("leftover");
        let store = CheckpointStore::open(&dir).unwrap();
        store.save(b"gen1").unwrap();
        fs::write(dir.join("state.rgck.tmp"), vec![0xAB; 10_000]).unwrap();
        store.save(b"gen2").unwrap();
        assert_eq!(store.load_best().unwrap().unwrap().0, b"gen2");
        let len = fs::metadata(store.latest_path()).unwrap().len();
        assert_eq!(len, frame(b"gen2").len() as u64);
        assert!(!dir.join("state.rgck.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_leaves_no_tmp_file() {
        let dir = tmp_dir("atomic");
        let path = dir.join("state.rgck");
        write_checkpoint_atomic(&path, b"payload").unwrap();
        assert!(path.exists());
        assert!(!dir.join("state.rgck.tmp").exists());
        assert_eq!(read_checkpoint(&path).unwrap(), b"payload");
        let _ = fs::remove_dir_all(&dir);
    }
}
