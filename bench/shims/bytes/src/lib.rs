//! Offline stand-in for `bytes`: declared in the workspace manifests, imported by no source file.
