//! The git revision of the checkout, read from `.git` with no dependencies.
//!
//! Three layouts are handled: an attached `HEAD` whose branch is a loose
//! ref file, an attached `HEAD` whose branch lives only in `packed-refs`,
//! and a detached `HEAD` holding the commit hash itself.

use std::fs;
use std::path::Path;

/// The commit `HEAD` names in the repository at `root`, or `None` when
/// `root` holds no readable `.git` directory (an exported source tree).
pub fn revision(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let packed = fs::read_to_string(git.join("packed-refs")).ok();
    resolve_head(&head, |name| fs::read_to_string(git.join(name)).ok(), packed.as_deref())
}

/// Resolves the text of `HEAD`: a `ref: <name>` line is looked up first as
/// a loose ref (through `loose`, which reads a path relative to `.git`) and
/// then in the `packed-refs` text; anything else is taken as a detached
/// commit hash.
pub fn resolve_head(
    head: &str,
    loose: impl Fn(&str) -> Option<String>,
    packed: Option<&str>,
) -> Option<String> {
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref:").map(str::trim) else {
        return as_hash(head);
    };
    if let Some(hash) = loose(name).as_deref().and_then(|text| as_hash(text.trim())) {
        return Some(hash);
    }
    packed?.lines().filter(|line| !line.starts_with('#') && !line.starts_with('^')).find_map(
        |line| match line.split_once(' ') {
            Some((hash, refname)) if refname.trim() == name => as_hash(hash),
            _ => None,
        },
    )
}

/// `text` as a commit hash (40 or 64 lower-case hex digits), if it is one.
fn as_hash(text: &str) -> Option<String> {
    let hex = text.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b));
    (hex && matches!(text.len(), 40 | 64)).then(|| text.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const HASH: &str = "c3397f761b8656b909451615dff4be8d90d71c51";
    const OTHER: &str = "0123456789abcdef0123456789abcdef01234567";

    #[test]
    fn attached_head_reads_the_loose_ref() {
        let loose = |name: &str| (name == "refs/heads/main").then(|| format!("{HASH}\n"));
        assert_eq!(resolve_head("ref: refs/heads/main\n", loose, None).as_deref(), Some(HASH));
    }

    #[test]
    fn attached_head_falls_back_to_packed_refs() {
        let packed = format!(
            "# pack-refs with: peeled fully-peeled sorted\n{OTHER} refs/heads/dev\n\
             {HASH} refs/heads/main\n^{OTHER}\n"
        );
        let resolved = resolve_head("ref: refs/heads/main\n", |_| None, Some(&packed));
        assert_eq!(resolved.as_deref(), Some(HASH));
        assert_eq!(resolve_head("ref: refs/heads/gone\n", |_| None, Some(&packed)), None);
    }

    #[test]
    fn detached_head_is_the_hash_itself() {
        assert_eq!(resolve_head(&format!("{HASH}\n"), |_| None, None).as_deref(), Some(HASH));
        assert_eq!(resolve_head("not a hash\n", |_| None, None), None);
    }

    #[test]
    fn missing_git_directory_is_no_revision() {
        assert_eq!(revision(Path::new("/nonexistent-checkout")), None);
    }
}
