package main

import "syscall"

// childAttrs has the kernel kill a child process if the benchmark dies
// without stopping it, so no daemon outlives a killed run.
func childAttrs() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
