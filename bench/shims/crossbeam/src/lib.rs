//! Offline stand-in for `crossbeam`: declared in the workspace manifests, imported by no source file.
